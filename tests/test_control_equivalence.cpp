// Thread-count and resume equivalence of the optimal-control solvers.
//
// The sweep's parallel sections (knot products, gradient evaluation)
// are built on util::parallel_for_chunks, whose chunk decomposition and
// reduction order are independent of the thread count. These tests pin
// that contract end to end: FBSM, projected gradient, and the MPC loop
// must produce bit-identical results at 1, 2, and 8 threads, and a run
// resumed from a mid-run checkpoint must reproduce the uninterrupted
// iterate sequence exactly.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/fbsweep.hpp"
#include "control/mpc.hpp"
#include "core/profile.hpp"
#include "core/sir_model.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

#include "temp_path.hpp"

namespace rumor {
namespace {

namespace fs = std::filesystem;

core::SirNetworkModel small_model() {
  // A heterogeneous 6-group profile; no dataset dependency.
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(0.02);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return core::SirNetworkModel(
      core::NetworkProfile::from_pmf(
          {2.0, 4.0, 8.0, 16.0, 32.0, 64.0},
          {0.35, 0.25, 0.18, 0.12, 0.07, 0.03}),
      params, core::make_constant_control(0.0, 0.0));
}

control::CostParams small_cost() {
  control::CostParams cost;
  cost.c1 = 5.0;
  cost.c2 = 10.0;
  cost.terminal_weight = 2.0;
  return cost;
}

control::SweepOptions small_options() {
  control::SweepOptions options;
  options.grid_points = 41;
  options.substeps = 4;
  options.max_iterations = 30;
  options.j_tolerance = 0.0;  // run the full budget: more iterates hashed
  options.tolerance = 0.0;
  return options;
}

/// FNV-1a over the raw bit patterns — any single-ULP difference in any
/// sample changes the digest.
std::uint64_t hash_doubles(std::uint64_t h, std::span<const double> values) {
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t digest(const control::SweepResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  h = hash_doubles(h, result.epsilon1);
  h = hash_doubles(h, result.epsilon2);
  h = hash_doubles(h, result.state.times());
  for (std::size_t k = 0; k < result.state.size(); ++k) {
    h = hash_doubles(h, result.state.state(k));
  }
  for (std::size_t k = 0; k < result.costate.size(); ++k) {
    h = hash_doubles(h, result.costate.state(k));
  }
  const double scalars[] = {result.cost.running, result.cost.terminal,
                            static_cast<double>(result.iterations)};
  return hash_doubles(h, scalars);
}

std::uint64_t digest(const control::MpcResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  h = hash_doubles(h, result.times);
  h = hash_doubles(h, result.epsilon1);
  h = hash_doubles(h, result.epsilon2);
  for (std::size_t k = 0; k < result.state.size(); ++k) {
    h = hash_doubles(h, result.state.state(k));
  }
  const double scalars[] = {result.cost.running, result.cost.terminal,
                            static_cast<double>(result.replans)};
  return hash_doubles(h, scalars);
}

/// Run `solve` at 1, 2, and 8 threads and require identical digests.
template <typename Solve>
void expect_thread_invariant(Solve&& solve) {
  const std::size_t counts[] = {1, 2, 8};
  std::uint64_t reference = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    util::set_num_threads(counts[c]);
    const std::uint64_t h = solve();
    if (c == 0) {
      reference = h;
    } else {
      EXPECT_EQ(h, reference) << "diverged at " << counts[c] << " threads";
    }
  }
  util::set_num_threads(0);  // restore the environment default
}

class ControlEquivalence : public ::testing::Test {
 protected:
  void SetUp() override { util::set_log_level(util::LogLevel::kError); }
  void TearDown() override {
    util::set_log_level(util::LogLevel::kInfo);
    util::set_num_threads(0);
  }
};

TEST_F(ControlEquivalence, FbsmIsThreadCountInvariant) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.05);
  expect_thread_invariant([&] {
    return digest(control::solve_optimal_control(model, y0, 10.0,
                                                 small_cost(),
                                                 small_options()));
  });
}

TEST_F(ControlEquivalence, ProjectedGradientIsThreadCountInvariant) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.05);
  auto options = small_options();
  options.algorithm = control::SweepAlgorithm::kProjectedGradient;
  options.max_iterations = 15;
  expect_thread_invariant([&] {
    return digest(control::solve_optimal_control(model, y0, 10.0,
                                                 small_cost(), options));
  });
}

TEST_F(ControlEquivalence, MpcIsThreadCountInvariant) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.05);
  control::MpcOptions options;
  options.replan_interval = 2.5;
  options.plant_dt = 0.05;
  options.sweep = small_options();
  options.sweep.max_iterations = 10;
  expect_thread_invariant([&] {
    return digest(control::run_mpc(model, y0, 10.0, small_cost(), options));
  });
}

TEST_F(ControlEquivalence, ResumedSweepIsBitIdentical) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.05);
  const auto cost = small_cost();
  auto options = small_options();

  const std::uint64_t uninterrupted = digest(
      control::solve_optimal_control(model, y0, 10.0, cost, options));

  // "Interrupted" run: stop after 12 of 30 iterations with a checkpoint
  // on disk, then resume with the full budget.
  const std::string path = test::temp_path("sweep.ckpt");
  options.checkpoint_path = path;
  options.checkpoint_every = 4;
  auto truncated = options;
  truncated.max_iterations = 12;
  control::solve_optimal_control(model, y0, 10.0, cost, truncated);
  ASSERT_TRUE(fs::exists(path));

  const std::uint64_t resumed = digest(
      control::solve_optimal_control(model, y0, 10.0, cost, options));
  fs::remove(path);
  EXPECT_EQ(resumed, uninterrupted);
}

TEST_F(ControlEquivalence, ResumedMpcIsBitIdentical) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.05);
  const auto cost = small_cost();
  control::MpcOptions options;
  options.replan_interval = 2.5;
  options.plant_dt = 0.05;
  options.sweep = small_options();
  options.sweep.max_iterations = 10;

  const std::uint64_t uninterrupted =
      digest(control::run_mpc(model, y0, 10.0, cost, options));

  const std::string path = test::temp_path("mpc.ckpt");
  options.checkpoint_path = path;
  // "Interrupted" run: half the horizon, leaving its checkpoint behind.
  control::run_mpc(model, y0, 5.0, cost, options);
  ASSERT_TRUE(fs::exists(path));

  const std::uint64_t resumed =
      digest(control::run_mpc(model, y0, 10.0, cost, options));
  fs::remove(path);
  EXPECT_EQ(resumed, uninterrupted);
}

TEST_F(ControlEquivalence, ThreadCountInvarianceHoldsUnderResume) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.05);
  const auto cost = small_cost();

  const std::string path = test::temp_path("mix.ckpt");
  // Checkpoint written at 2 threads, resumed at 8 and at 1: thread
  // count must not leak into the persisted state.
  auto options = small_options();
  options.checkpoint_path = path;
  options.checkpoint_every = 4;
  auto truncated = options;
  truncated.max_iterations = 12;

  util::set_num_threads(2);
  control::solve_optimal_control(model, y0, 10.0, cost, truncated);
  ASSERT_TRUE(fs::exists(path));

  util::set_num_threads(8);
  const std::uint64_t at8 = digest(
      control::solve_optimal_control(model, y0, 10.0, cost, options));

  // Re-create the same checkpoint state and resume single-threaded.
  fs::remove(path);
  util::set_num_threads(2);
  control::solve_optimal_control(model, y0, 10.0, cost, truncated);
  util::set_num_threads(1);
  const std::uint64_t at1 = digest(
      control::solve_optimal_control(model, y0, 10.0, cost, options));
  fs::remove(path);
  EXPECT_EQ(at8, at1);
}

}  // namespace
}  // namespace rumor
