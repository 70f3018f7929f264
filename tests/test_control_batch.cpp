// Per-lane divergence tests for the batched optimal-control solver.
//
// The contract under test (batch_sweep.hpp): lane l of a batched solve
// reproduces the sequential solve of problem l — bit for bit under the
// scalar kernel backend, to ULP-scale tolerance under SIMD (whose
// sequential reductions reassociate where the batched ones do not) —
// even when the lanes converge at different iterations, retire from
// the Armijo search at different backtrack depths, or fail outright.
// Lane independence is checked at its strongest: every lane of a ragged
// batch, and every single-lane batch, must equal the same problem inside
// a full 8-lane batch bitwise on EVERY backend, because the batched
// kernels never mix lanes.
#include "control/batch_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "control/fbsweep.hpp"
#include "kern/kern.hpp"
#include "obs/metrics.hpp"

namespace rumor::control {
namespace {

core::NetworkProfile small_profile() {
  return core::NetworkProfile::from_pmf({1.0, 3.0, 8.0}, {0.6, 0.3, 0.1});
}

core::ModelParams small_params() {
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return params;
}

SweepOptions fast_options() {
  SweepOptions options;
  options.grid_points = 61;
  options.substeps = 4;
  options.max_iterations = 300;
  options.j_tolerance = 1e-6;
  return options;
}

// Problems whose cost weights differ enough that the lanes converge at
// different FBSM iterations (and accept at different PG backtracks).
std::vector<BatchProblem> divergent_problems(std::size_t count) {
  const auto profile = small_profile();
  const auto params = small_params();
  const core::SirNetworkModel model(profile, params,
                                    core::make_constant_control(0.0, 0.0));
  const ode::State y0 = model.initial_state(0.02);
  std::vector<BatchProblem> problems(count);
  for (std::size_t p = 0; p < count; ++p) {
    problems[p].params = params;
    problems[p].cost.c1 = 5.0;
    problems[p].cost.c2 = 10.0 * (1.0 + 0.25 * static_cast<double>(p));
    problems[p].cost.terminal_weight = 1.0 + static_cast<double>(p % 3);
    problems[p].y0 = y0;
  }
  return problems;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// A batch lane against the sequential driver on the same problem:
// bitwise under the scalar backend, ULP-scale tolerance under SIMD.
void expect_matches_sequential(const BatchSolveReport& rep,
                               const SweepResult& seq, std::size_t lane) {
  ASSERT_FALSE(rep.failed) << "lane " << lane << ": " << rep.error;
  const SweepResult& got = rep.result;
  EXPECT_EQ(got.iterations, seq.iterations) << "lane " << lane;
  EXPECT_EQ(got.converged, seq.converged) << "lane " << lane;
  if (kern::backend() == kern::Backend::kScalar) {
    EXPECT_TRUE(bitwise_equal(got.epsilon1, seq.epsilon1))
        << "lane " << lane << " epsilon1 not bitwise equal (scalar backend)";
    EXPECT_TRUE(bitwise_equal(got.epsilon2, seq.epsilon2))
        << "lane " << lane << " epsilon2 not bitwise equal (scalar backend)";
    EXPECT_EQ(got.cost.total(), seq.cost.total()) << "lane " << lane;
  } else {
    ASSERT_EQ(got.epsilon1.size(), seq.epsilon1.size());
    for (std::size_t k = 0; k < seq.epsilon1.size(); ++k) {
      EXPECT_NEAR(got.epsilon1[k], seq.epsilon1[k], 1e-6)
          << "lane " << lane << " knot " << k;
      EXPECT_NEAR(got.epsilon2[k], seq.epsilon2[k], 1e-6)
          << "lane " << lane << " knot " << k;
    }
    EXPECT_NEAR(got.cost.total(), seq.cost.total(),
                1e-6 * std::max(1.0, std::abs(seq.cost.total())))
        << "lane " << lane;
  }
}

void expect_same_lane(const BatchSolveReport& got,
                      const BatchSolveReport& want, std::size_t width,
                      std::size_t lane) {
  ASSERT_FALSE(got.failed) << got.error;
  ASSERT_FALSE(want.failed) << want.error;
  // Bitwise on ANY backend: the batched kernels never mix lanes, so
  // lane width cannot change a lane's arithmetic.
  EXPECT_TRUE(bitwise_equal(got.result.epsilon1, want.result.epsilon1))
      << "lane " << lane << " epsilon1 differs at batch width " << width;
  EXPECT_TRUE(bitwise_equal(got.result.epsilon2, want.result.epsilon2))
      << "lane " << lane << " epsilon2 differs at batch width " << width;
  EXPECT_EQ(got.result.cost.total(), want.result.cost.total())
      << "lane " << lane << " width " << width;
  EXPECT_EQ(got.result.iterations, want.result.iterations)
      << "lane " << lane << " width " << width;
  EXPECT_EQ(got.result.converged, want.result.converged)
      << "lane " << lane << " width " << width;
}

// Every lane of a ragged batch — widths 5, 6, 7 and 9, each solved as
// ONE batch, so its last vector is masked on both SIMD widths (behind a
// full vector at 5–7 on AVX2 and at 9 on both) — and every single-lane
// batch must equal the same problem inside a full 8-lane batch.
void expect_lane_independent_of_batch_width(const SweepAlgorithm algorithm) {
  constexpr std::size_t kFull = 8;
  const auto profile = small_profile();
  const auto problems = divergent_problems(kFull + 1);
  SweepOptions options = fast_options();
  options.algorithm = algorithm;
  const double tf = 30.0;
  const auto solve = [&](std::size_t lo, std::size_t hi) {
    const std::vector<BatchProblem> chunk(problems.begin() + lo,
                                          problems.begin() + hi);
    return solve_optimal_control_batch(profile, chunk, tf, options,
                                       /*lanes=*/chunk.size());
  };

  // Problems 0–7 in one full batch, problem 8 in the full batch 1–8.
  const auto full_lo = solve(0, kFull);
  const auto full_hi = solve(1, kFull + 1);
  const auto reference = [&](std::size_t p) -> const BatchSolveReport& {
    return p < kFull ? full_lo[p] : full_hi[p - 1];
  };

  for (const std::size_t width : {std::size_t{5}, std::size_t{6},
                                  std::size_t{7}, std::size_t{9}}) {
    const auto batched = solve(0, width);
    ASSERT_EQ(batched.size(), width);
    for (std::size_t p = 0; p < width; ++p) {
      expect_same_lane(batched[p], reference(p), width, p);
    }
  }
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const auto single = solve(p, p + 1);
    expect_same_lane(single[0], reference(p), 1, p);
  }
}

// The driver stores each chunk at kern::padded_lanes() lanes, the extra
// ones born-retired copies of the chunk's last problem. At widths 1, 7
// and 9 under the default chunk size (chunks 1, 7, and 8 + 1) the
// padding must be invisible: one report per problem, each bitwise equal
// to the problem's lane inside a full 8-lane batch, and the iteration
// and batch-solve counters advanced by the real lanes alone.
void expect_padding_invisible(const SweepAlgorithm algorithm) {
  constexpr std::size_t kFull = 8;
  const auto profile = small_profile();
  const auto problems = divergent_problems(kFull + 1);
  SweepOptions options = fast_options();
  options.algorithm = algorithm;
  const double tf = 30.0;
  const auto solve = [&](std::size_t lo, std::size_t hi) {
    const std::vector<BatchProblem> chunk(problems.begin() + lo,
                                          problems.begin() + hi);
    return solve_optimal_control_batch(profile, chunk, tf, options);
  };
  const auto full_lo = solve(0, kFull);
  const auto full_hi = solve(1, kFull + 1);
  const auto reference = [&](std::size_t p) -> const BatchSolveReport& {
    return p < kFull ? full_lo[p] : full_hi[p - 1];
  };

  obs::Registry& registry = obs::metrics();
  const obs::Counter& iterations = registry.counter(
      algorithm == SweepAlgorithm::kProjectedGradient ? "pg.iterations"
                                                      : "fbsm.iterations");
  const obs::Counter& solves = registry.counter("control.batch_solves");
  for (const std::size_t width :
       {std::size_t{1}, std::size_t{7}, std::size_t{9}}) {
    const std::uint64_t iterations_before = iterations.value();
    const std::uint64_t solves_before = solves.value();
    const auto batched = solve(0, width);
    const std::uint64_t counted = iterations.value() - iterations_before;
    ASSERT_EQ(batched.size(), width);
    std::uint64_t reported = 0;
    for (std::size_t p = 0; p < width; ++p) {
      expect_same_lane(batched[p], reference(p), width, p);
      reported += batched[p].result.iterations;
    }
    EXPECT_EQ(counted, reported) << "width " << width;
    EXPECT_EQ(solves.value() - solves_before, width) << "width " << width;
  }
}

TEST(ControlBatch, PaddedLanesFollowTheBackendVectorWidth) {
  std::size_t width = 1;  // the scalar backend pads nothing
  if (kern::backend() == kern::Backend::kAvx2) width = 4;
  if (kern::backend() == kern::Backend::kAvx512) width = 8;
  for (std::size_t count = 1; count <= 17; ++count) {
    const std::size_t padded = kern::padded_lanes(count);
    EXPECT_EQ(padded % width, 0u) << "count " << count;
    EXPECT_GE(padded, count);
    EXPECT_LT(padded - count, width) << "count " << count;
  }
}

TEST(ControlBatch, FbsmPaddedLanesAreInvisible) {
  expect_padding_invisible(SweepAlgorithm::kForwardBackward);
}

TEST(ControlBatch, PgPaddedLanesAreInvisible) {
  expect_padding_invisible(SweepAlgorithm::kProjectedGradient);
}

TEST(ControlBatch, FbsmLanesDivergeAndMatchSequential) {
  const auto profile = small_profile();
  const auto problems = divergent_problems(6);
  const SweepOptions options = fast_options();
  const double tf = 30.0;

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  ASSERT_EQ(batched.size(), problems.size());

  // The cost spread must actually exercise per-lane retirement: at
  // least two distinct convergence iteration counts.
  std::set<std::size_t> iteration_counts;
  for (const auto& rep : batched) {
    ASSERT_FALSE(rep.failed) << rep.error;
    EXPECT_TRUE(rep.result.converged);
    iteration_counts.insert(rep.result.iterations);
  }
  EXPECT_GE(iteration_counts.size(), 2u)
      << "test problems converged in lockstep; widen the cost spread";

  for (std::size_t p = 0; p < problems.size(); ++p) {
    const core::SirNetworkModel model(profile, problems[p].params,
                                      core::make_constant_control(0.0, 0.0));
    const auto seq = solve_optimal_control(model, problems[p].y0, tf,
                                           problems[p].cost, options);
    expect_matches_sequential(batched[p], seq, p);
  }
}

TEST(ControlBatch, PgLanesDivergeAndMatchSequential) {
  const auto profile = small_profile();
  const auto problems = divergent_problems(4);
  SweepOptions options = fast_options();
  options.algorithm = SweepAlgorithm::kProjectedGradient;
  const double tf = 30.0;

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  ASSERT_EQ(batched.size(), problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const core::SirNetworkModel model(profile, problems[p].params,
                                      core::make_constant_control(0.0, 0.0));
    const auto seq = solve_optimal_control(model, problems[p].y0, tf,
                                           problems[p].cost, options);
    expect_matches_sequential(batched[p], seq, p);
  }
}

TEST(ControlBatch, FbsmLaneIndependentOfBatchWidth) {
  expect_lane_independent_of_batch_width(SweepAlgorithm::kForwardBackward);
}

TEST(ControlBatch, PgLaneIndependentOfBatchWidth) {
  expect_lane_independent_of_batch_width(SweepAlgorithm::kProjectedGradient);
}

TEST(ControlBatch, PerLaneBoxOverridesBindPerLane) {
  const auto profile = small_profile();
  auto problems = divergent_problems(3);
  for (auto& p : problems) p.cost.terminal_weight = 50.0;
  problems[0].epsilon2_max = 0.05;  // tight budget: the cap must bind
  problems[1].epsilon2_max = 0.30;
  // problems[2] keeps the shared options box (0.7).
  const auto batched =
      solve_optimal_control_batch(profile, problems, 30.0, fast_options());
  const auto peak = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
  };
  ASSERT_FALSE(batched[0].failed) << batched[0].error;
  ASSERT_FALSE(batched[1].failed) << batched[1].error;
  ASSERT_FALSE(batched[2].failed) << batched[2].error;
  EXPECT_LE(peak(batched[0].result.epsilon2), 0.05 + 1e-12);
  EXPECT_LE(peak(batched[1].result.epsilon2), 0.30 + 1e-12);
  EXPECT_GT(peak(batched[0].result.epsilon2), 0.05 - 1e-6)
      << "the tight cap should bind under heavy terminal weight";
  EXPECT_GT(peak(batched[2].result.epsilon2),
            peak(batched[1].result.epsilon2))
      << "looser budgets should buy more blocking effort";
}

TEST(ControlBatch, FailedLaneDoesNotPerturbOthers) {
  const auto profile = small_profile();
  auto problems = divergent_problems(3);
  problems[1].y0[0] = std::numeric_limits<double>::quiet_NaN();
  const double tf = 30.0;
  const SweepOptions options = fast_options();

  const auto batched =
      solve_optimal_control_batch(profile, problems, tf, options);
  EXPECT_TRUE(batched[1].failed);
  EXPECT_FALSE(batched[1].error.empty());

  // The surviving lanes must be byte-for-byte what they are with the
  // poisoned lane absent.
  for (std::size_t p : {std::size_t{0}, std::size_t{2}}) {
    const std::vector<BatchProblem> one(1, problems[p]);
    const auto single = solve_optimal_control_batch(profile, one, tf, options);
    ASSERT_FALSE(batched[p].failed) << batched[p].error;
    ASSERT_FALSE(single[0].failed) << single[0].error;
    EXPECT_TRUE(bitwise_equal(batched[p].result.epsilon1,
                              single[0].result.epsilon1));
    EXPECT_TRUE(bitwise_equal(batched[p].result.epsilon2,
                              single[0].result.epsilon2));
    EXPECT_EQ(batched[p].result.cost.total(), single[0].result.cost.total());
  }
}

}  // namespace
}  // namespace rumor::control
