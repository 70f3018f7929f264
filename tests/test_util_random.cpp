#include "util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/error.hpp"

namespace rumor::util {
namespace {

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro, UniformInHalfOpenUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanAndVariance) {
  Xoshiro256 rng(11);
  const int samples = 200'000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double m = sum / samples;
  const double var = sum2 / samples - m * m;
  EXPECT_NEAR(m, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Xoshiro, UniformRangeRespectsBounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro, UniformRangeRejectsInvertedBounds) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
}

TEST(Xoshiro, UniformIndexCoversAllValues) {
  Xoshiro256 rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Xoshiro, UniformIndexIsUnbiased) {
  Xoshiro256 rng(19);
  const std::uint64_t bound = 3;
  std::vector<int> counts(bound, 0);
  const int samples = 90'000;
  for (int i = 0; i < samples; ++i) ++counts[rng.uniform_index(bound)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), samples / 3.0, 900.0);
  }
}

TEST(Xoshiro, UniformIndexRejectsZeroBound) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Xoshiro, BernoulliEdgeProbabilities) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro, BernoulliFrequencyMatchesP) {
  Xoshiro256 rng(29);
  const int samples = 100'000;
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(samples), 0.3, 0.01);
}

TEST(Xoshiro, NormalMomentsAreStandard) {
  Xoshiro256 rng(31);
  const int samples = 100'000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / samples, 0.0, 0.02);
  EXPECT_NEAR(sum2 / samples, 1.0, 0.03);
}

TEST(Xoshiro, ExponentialMeanIsInverseRate) {
  Xoshiro256 rng(37);
  const int samples = 100'000;
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / samples, 0.25, 0.01);
}

TEST(Xoshiro, ExponentialRejectsNonPositiveRate) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
  EXPECT_THROW(rng.exponential(-1.0), InvalidArgument);
}

TEST(Xoshiro, SplitProducesIndependentStream) {
  Xoshiro256 parent(41);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256 rng(43);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  shuffle(shuffled, rng);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Shuffle, ActuallyPermutes) {
  Xoshiro256 rng(47);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i;
  auto shuffled = items;
  shuffle(shuffled, rng);
  EXPECT_NE(shuffled, items);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Xoshiro256 rng(53);
  const auto picks = sample_without_replacement(100, 30, rng);
  ASSERT_EQ(picks.size(), 30u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const std::size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(SampleWithoutReplacement, FullUniverseIsPermutation) {
  Xoshiro256 rng(59);
  const auto picks = sample_without_replacement(10, 10, rng);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SampleWithoutReplacement, RejectsOversizedCount) {
  Xoshiro256 rng(61);
  EXPECT_THROW(sample_without_replacement(5, 6, rng), InvalidArgument);
}

TEST(SampleWithoutReplacement, IsApproximatelyUniform) {
  Xoshiro256 rng(67);
  std::vector<int> counts(10, 0);
  const int trials = 20'000;
  for (int t = 0; t < trials; ++t) {
    for (const std::size_t p : sample_without_replacement(10, 3, rng)) {
      ++counts[p];
    }
  }
  // Each index is chosen with probability 3/10.
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.3, 0.02);
  }
}

// ---- bernoulli_threshold: the integer form of CounterRng::bernoulli --

// What CounterRng::uniform() returns for a draw x with x >> 11 == m.
double uniform_of(std::uint64_t m) {
  return static_cast<double>(m) * 0x1.0p-53;
}

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

// The rule at its boundary: for T = bernoulli_threshold(p) with p in
// (0, 1), the draw just below T succeeds and the draw at T fails under
// the floating-point rule too. Random draws almost never land there.
void expect_boundary_exact(double p) {
  const std::uint64_t t = bernoulli_threshold(p);
  ASSERT_GE(t, 1u) << "p=" << p;
  ASSERT_LE(t, kTwo53) << "p=" << p;
  EXPECT_TRUE(uniform_of(t - 1) < p) << "m = T - 1, p=" << p;
  if (t < kTwo53) {
    EXPECT_FALSE(uniform_of(t) < p) << "m = T, p=" << p;
  }
}

TEST(BernoulliThreshold, DegenerateProbabilities) {
  // p <= 0 (and NaN) never succeed: threshold 0 admits no draw.
  for (const double p : {0.0, -0.0, -1e-300, -1.0,
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(bernoulli_threshold(p), 0u) << "p=" << p;
  }
  // p >= 1 always succeeds: every 53-bit draw, up to 2^53 - 1, is below.
  for (const double p : {1.0, std::nextafter(1.0, 2.0), 1.5, 1e300,
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(bernoulli_threshold(p), kTwo53) << "p=" << p;
  }
  EXPECT_LT(kTwo53 - 1, bernoulli_threshold(1.0));
}

TEST(BernoulliThreshold, DyadicProbabilitiesAndTheirNeighbours) {
  // p = k·2^-53 is exactly representable and m·2^-53 < k·2^-53 iff
  // m < k, so T = k. One ulp above also admits m = k (T = k + 1). One
  // ulp below still admits m = k - 1 while p <= 1/2, where an ulp is
  // smaller than 2^-53 (T = k); above 1/2 an ulp is 2^-53 and the
  // neighbour is (k - 1)·2^-53 itself (T = k - 1).
  for (const std::uint64_t k :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{1000003}, kTwo53 / 2 - 1, kTwo53 / 2,
        kTwo53 / 2 + 1, kTwo53 - 2, kTwo53 - 1}) {
    const double p = static_cast<double>(k) * 0x1.0p-53;
    ASSERT_EQ(static_cast<double>(k), p * 0x1.0p53) << "k=" << k;
    EXPECT_EQ(bernoulli_threshold(p), k) << "k=" << k;
    expect_boundary_exact(p);
    const double up = std::nextafter(p, 1.0);
    EXPECT_EQ(bernoulli_threshold(up), k + 1) << "k=" << k;
    expect_boundary_exact(up);
    const double down = std::nextafter(p, 0.0);
    EXPECT_EQ(bernoulli_threshold(down), p <= 0.5 ? k : k - 1)
        << "k=" << k;
    expect_boundary_exact(down);
  }
  // The largest double below 1 is 1 - 2^-53: every draw but the top one.
  EXPECT_EQ(bernoulli_threshold(std::nextafter(1.0, 0.0)), kTwo53 - 1);
}

TEST(BernoulliThreshold, TinyAndSubnormalProbabilities) {
  // Any p > 0 admits m = 0 (0 < p), and nothing else while p <= 2^-53.
  for (const double p : {std::numeric_limits<double>::denorm_min(),
                         1e-310, std::numeric_limits<double>::min(),
                         1e-300, 0x1.0p-60, 0x1.0p-54,
                         std::nextafter(0x1.0p-53, 0.0), 0x1.0p-53}) {
    EXPECT_EQ(bernoulli_threshold(p), 1u) << "p=" << p;
    expect_boundary_exact(p);
  }
}

TEST(BernoulliThreshold, BoundaryExactAcrossTheUnitInterval) {
  Xoshiro256 rng(41);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over (2^-64, 1) so every exponent is covered.
    const double p = std::ldexp(0.5 + 0.5 * rng.uniform(),
                                -static_cast<int>(rng.uniform_index(64)));
    if (!(p < 1.0)) continue;
    expect_boundary_exact(p);
  }
}

TEST(BernoulliThreshold, BelowMatchesBernoulliOnTheSameStream) {
  // CounterRng::below(T(p)) draws exactly as bernoulli(p) for p in
  // (0, 1): same outcome, same draw consumed.
  Xoshiro256 keys(43);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = keys();
    const double p = keys.uniform();
    if (!(p > 0.0)) continue;
    CounterRng a(key);
    CounterRng b(key);
    ASSERT_EQ(a.bernoulli(p), b.below(bernoulli_threshold(p)))
        << "key=" << key << " p=" << p;
    ASSERT_EQ(a.next(), b.next());
  }
}

}  // namespace
}  // namespace rumor::util
