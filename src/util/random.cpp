#include "util/random.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_set>

#include "util/error.hpp"

namespace rumor::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64_next(sm);
  // All-zero state is the one forbidden state for xoshiro; splitmix64
  // cannot produce four zero outputs in a row, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

void Xoshiro256::set_state(const std::array<std::uint64_t, 4>& state) {
  require(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0,
          "Xoshiro256::set_state: the all-zero state is invalid");
  state_ = state;
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Xoshiro256::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  require(lo <= hi, "Xoshiro256::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Xoshiro256::uniform_index(std::uint64_t bound) {
  require(bound > 0, "Xoshiro256::uniform_index: bound must be positive");
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Xoshiro256::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Xoshiro256::normal() {
  // Box–Muller; discard the second variate to keep the generator stateless
  // between calls (simpler reasoning about reproducibility).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Xoshiro256::exponential(double rate) {
  require(rate > 0.0, "Xoshiro256::exponential: rate must be positive");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

Xoshiro256 Xoshiro256::split() { return Xoshiro256((*this)()); }

std::vector<std::size_t> sample_without_replacement(std::size_t universe,
                                                    std::size_t count,
                                                    Xoshiro256& rng) {
  require(count <= universe,
          "sample_without_replacement: count must be <= universe");
  // Floyd's algorithm: O(count) expected draws, no O(universe) allocation.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(count * 2);
  std::vector<std::size_t> result;
  result.reserve(count);
  for (std::size_t j = universe - count; j < universe; ++j) {
    const auto t = static_cast<std::size_t>(rng.uniform_index(j + 1));
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

}  // namespace rumor::util
