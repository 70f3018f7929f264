// Deterministic pseudo-random number generation.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through splitmix64,
// rather than relying on std::mt19937, for two reasons: (a) reproducibility
// of the published bench numbers across standard-library implementations,
// and (b) speed in the agent-based Monte-Carlo simulator, which draws one
// uniform per edge per step on graphs with ~1.7M edges.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rumor::util {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
/// Advances `state` and returns the next output. Inline: the agent
/// simulator's per-node draw streams call it several times per node per
/// step.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless splitmix64 hash of a single word: the output of one
/// splitmix64 step starting from `x`. Used to decorrelate structured
/// keys (replica indices, step counters, chunk ids) before they seed a
/// generator — nearby inputs give unrelated outputs.
inline std::uint64_t splitmix64(std::uint64_t x) {
  std::uint64_t state = x;
  return splitmix64_next(state);
}

/// The integer form of a Bernoulli(p) trial on a 53-bit uniform draw:
/// for a draw x, `(x >> 11) < bernoulli_threshold(p)` is exactly
/// `(x >> 11) * 2^-53 < p`, i.e. CounterRng::uniform() < p. Scaling by
/// 2^53 is exact in binary floating point, and an integer m is below a
/// real y iff it is below ceil(y), so the threshold is ceil(p · 2^53)
/// for p in (0, 1); 0 for p <= 0 (or NaN: never succeeds) and 2^53 for
/// p >= 1 (always succeeds — every 53-bit draw is below it). Computing
/// the threshold once turns each later trial into one integer compare.
inline std::uint64_t bernoulli_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// Hash-combine two words into one well-mixed word. Chain it to derive
/// counter-based stream keys, e.g. hash_mix(hash_mix(seed, step), chunk)
/// for the agent simulator's per-chunk RNG streams: the key — and hence
/// every draw — depends only on (seed, step, chunk), never on which
/// thread runs the chunk.
inline std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (splitmix64(b) + 0x9E3779B97F4A7C15ULL));
}

/// Minimal counter-based stream for per-entity randomness: a splitmix64
/// walk starting from a caller-supplied key. The agent simulator keys
/// one CounterRng per (seed, step, node) — hash_mix(hash_mix(seed,
/// step), node) — so every draw a node makes is a pure function of that
/// triple, independent of chunking, visitation order, or thread count.
/// That is what lets the sparse frontier engine skip nodes that cannot
/// change state and still reproduce the dense sweep bit-for-bit.
///
/// Construction is two adds (vs. four splitmix rounds to seed a
/// Xoshiro256), which matters when a fresh stream is created per node
/// per step. bernoulli() mirrors Xoshiro256::bernoulli's consumption
/// contract exactly: p <= 0 and p >= 1 return without consuming a
/// draw, so call sequences stay aligned between code paths that draw
/// degenerate probabilities and ones that skip them.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t key) : state_(key) {}

  std::uint64_t next() { return splitmix64_next(state_); }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial; consumes a draw only for p strictly inside (0, 1).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Bernoulli trial against a precomputed bernoulli_threshold(p):
  /// the same outcome as bernoulli(p) for p in (0, 1), but always
  /// consumes a draw (callers that need bernoulli()'s consumption
  /// contract skip the call when the threshold is 0 or 2^53).
  bool below(std::uint64_t threshold) { return (next() >> 11) < threshold; }

  /// Uniform integer in [0, bound), bound > 0 — Lemire's rejection
  /// method, so the result is unbiased and a pure function of the
  /// stream key (the streaming BA generator replays these draws to
  /// re-resolve edge endpoints without storing them).
  std::uint64_t uniform_below(std::uint64_t bound) {
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator, so it
/// can also drive <random> distributions when convenient.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 so that nearby seeds give unrelated streams.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// rejection method (no modulo bias).
  std::uint64_t uniform_index(std::uint64_t bound);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (no cached spare; stateless per call).
  double normal();

  /// Exponential with rate `rate` > 0 (mean 1/rate). Used by the
  /// Gillespie simulator for event waiting times.
  double exponential(double rate);

  /// Split off an independent generator (jump-free: re-seeds from this
  /// stream). Adequate for embarrassingly parallel ensemble replicas.
  Xoshiro256 split();

  /// The raw 256-bit generator state, for checkpoint/resume: restoring
  /// via set_state continues the exact draw sequence. Rejects the
  /// all-zero state (the one invalid xoshiro state).
  std::array<std::uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Fisher–Yates shuffle of `items` using `rng`.
template <typename T>
void shuffle(std::vector<T>& items, Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_index(i));
    std::swap(items[i - 1], items[j]);
  }
}

/// Sample `count` distinct indices from [0, universe) without replacement
/// (Floyd's algorithm). Requires count <= universe.
std::vector<std::size_t> sample_without_replacement(std::size_t universe,
                                                    std::size_t count,
                                                    Xoshiro256& rng);

}  // namespace rumor::util
