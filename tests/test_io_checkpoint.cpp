// Checkpoint/restore of the three long-running engines. The common
// contract: a run interrupted at any point and resumed from its
// snapshot produces BIT-identical results to an uninterrupted run — so
// every comparison here is EXPECT_EQ on doubles, never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "control/checkpoint.hpp"
#include "control/fbsweep.hpp"
#include "control/mpc.hpp"
#include "graph/generators.hpp"
#include "io/container.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ensemble.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace rumor {
namespace {

namespace fs = std::filesystem;

using rumor::test::temp_path;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t threads) {
    util::set_num_threads(threads);
  }
  ~ThreadCountGuard() { util::set_num_threads(0); }
};

sim::AgentParams agent_params() {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon1 = 0.02;
  params.epsilon2 = 0.1;
  params.dt = 0.1;
  return params;
}

std::vector<sim::Compartment> final_states(
    const sim::AgentSimulation& simulation) {
  std::vector<sim::Compartment> out;
  for (std::size_t v = 0; v < simulation.num_nodes(); ++v) {
    out.push_back(simulation.state(static_cast<graph::NodeId>(v)));
  }
  return out;
}

// ---- AgentSimulation ------------------------------------------------

TEST(AgentCheckpoint, ResumeMatchesUninterruptedAcrossThreadCounts) {
  util::Xoshiro256 rng(31);
  const auto g = graph::barabasi_albert(1200, 3, rng);
  const std::string path = temp_path("agent.bin");

  // Reference: 60 uninterrupted steps on one thread.
  std::vector<sim::Compartment> reference;
  {
    ThreadCountGuard guard(1);
    sim::AgentSimulation simulation(g, agent_params(), 99);
    simulation.seed_random_infections(8);
    for (int s = 0; s < 60; ++s) simulation.step();
    reference = final_states(simulation);
  }

  // Interrupted at step 25 on 2 threads, resumed into a FRESH object on
  // 8 threads — crossing both a process boundary (the file) and a
  // thread-count change.
  {
    ThreadCountGuard guard(2);
    sim::AgentSimulation simulation(g, agent_params(), 99);
    simulation.seed_random_infections(8);
    for (int s = 0; s < 25; ++s) simulation.step();
    sim::save_agent_checkpoint(simulation, path);
  }
  {
    ThreadCountGuard guard(8);
    sim::AgentSimulation simulation(g, agent_params(), 99);
    sim::load_agent_checkpoint(simulation, path);
    EXPECT_EQ(simulation.step_count(), 25u);
    for (int s = 25; s < 60; ++s) simulation.step();
    EXPECT_EQ(final_states(simulation), reference);
  }
  fs::remove(path);
}

TEST(AgentCheckpoint, RestoreRecomputesDerivedCounters) {
  util::Xoshiro256 rng(7);
  const auto g = graph::barabasi_albert(300, 3, rng);
  sim::AgentSimulation simulation(g, agent_params(), 5);
  simulation.seed_random_infections(12);
  for (int s = 0; s < 10; ++s) simulation.step();
  const auto census = simulation.census();
  const auto ever = simulation.ever_infected();

  sim::AgentSimulation other(g, agent_params(), 5);
  other.restore(simulation.checkpoint());
  const auto restored = other.census();
  EXPECT_EQ(restored.susceptible, census.susceptible);
  EXPECT_EQ(restored.infected, census.infected);
  EXPECT_EQ(restored.recovered, census.recovered);
  EXPECT_EQ(other.ever_infected(), ever);
  EXPECT_EQ(other.time(), simulation.time());
}

TEST(AgentCheckpoint, RejectsMismatchedGraphAndDt) {
  util::Xoshiro256 rng(7);
  const auto g = graph::barabasi_albert(300, 3, rng);
  const auto other_graph = graph::barabasi_albert(301, 3, rng);
  const std::string path = temp_path("agent_mismatch.bin");
  sim::AgentSimulation simulation(g, agent_params(), 5);
  simulation.seed_random_infections(3);
  sim::save_agent_checkpoint(simulation, path);

  sim::AgentSimulation wrong_graph(other_graph, agent_params(), 5);
  EXPECT_THROW(sim::load_agent_checkpoint(wrong_graph, path), util::IoError);

  auto params = agent_params();
  params.dt = 0.05;
  sim::AgentSimulation wrong_dt(g, params, 5);
  EXPECT_THROW(sim::load_agent_checkpoint(wrong_dt, path), util::IoError);
  fs::remove(path);
}

TEST(AgentCheckpoint, CorruptedFileThrowsTypedError) {
  util::Xoshiro256 rng(7);
  const auto g = graph::barabasi_albert(200, 3, rng);
  const std::string path = temp_path("agent_corrupt.bin");
  sim::AgentSimulation simulation(g, agent_params(), 5);
  simulation.seed_random_infections(3);
  sim::save_agent_checkpoint(simulation, path);

  // Flip one byte near the end (inside the agent.state payload).
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-4, std::ios::end);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(-4, std::ios::end);
  byte = static_cast<char>(byte ^ 0x10);
  file.write(&byte, 1);
  file.close();

  sim::AgentSimulation fresh(g, agent_params(), 5);
  EXPECT_THROW(sim::load_agent_checkpoint(fresh, path), util::IoError);
  fs::remove(path);
}

// ---- run_ensemble ---------------------------------------------------

void expect_same_ensemble(const sim::EnsembleResult& a,
                          const sim::EnsembleResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    EXPECT_EQ(a.series[s].t, b.series[s].t);
    EXPECT_EQ(a.series[s].mean_infected_fraction,
              b.series[s].mean_infected_fraction);
    EXPECT_EQ(a.series[s].std_infected_fraction,
              b.series[s].std_infected_fraction);
    EXPECT_EQ(a.series[s].mean_recovered_fraction,
              b.series[s].mean_recovered_fraction);
  }
  EXPECT_EQ(a.mean_attack_rate, b.mean_attack_rate);
}

// Rewrite a finished ensemble checkpoint so that only `keep` replicas
// are marked done (their series preserved verbatim) and the rest are
// cleared — byte-for-byte what an interrupted run leaves behind, since
// the writer zeroes not-yet-done slots.
void truncate_ensemble_checkpoint(const std::string& path,
                                  std::size_t keep) {
  const auto container = io::ContainerReader::open(path);
  const auto meta_span = container->section("ens.meta");
  io::ByteReader meta = container->reader("ens.meta");
  const std::size_t replicas = meta.u64();
  const std::size_t steps = meta.u64();
  const std::size_t points = steps + 1;
  ASSERT_LT(keep, replicas);

  auto done = container->reader("ens.done").vec<std::uint8_t>();
  auto infected = container->reader("ens.infected").vec<double>();
  auto recovered = container->reader("ens.recovered").vec<double>();
  io::ByteReader attack_reader = container->reader("ens.attack");
  std::vector<double> attack(replicas);
  for (double& a : attack) a = attack_reader.f64();

  for (std::size_t r = keep; r < replicas; ++r) {
    done[r] = 0;
    attack[r] = 0.0;
    for (std::size_t s = 0; s < points; ++s) {
      infected[r * points + s] = 0.0;
      recovered[r * points + s] = 0.0;
    }
  }

  io::ContainerWriter writer("ENSEMBLE");
  io::ByteWriter meta_out;
  meta_out.bytes(meta_span);
  writer.add_section("ens.meta", std::move(meta_out));
  io::ByteWriter done_out;
  done_out.vec(done);
  writer.add_section("ens.done", std::move(done_out));
  io::ByteWriter infected_out, recovered_out, attack_out;
  infected_out.vec(infected);
  recovered_out.vec(recovered);
  for (const double a : attack) attack_out.f64(a);
  writer.add_section("ens.infected", std::move(infected_out));
  writer.add_section("ens.recovered", std::move(recovered_out));
  writer.add_section("ens.attack", std::move(attack_out));
  writer.write_file(path);
}

TEST(EnsembleCheckpoint, ResumeSkipsFinishedReplicasBitIdentically) {
  util::Xoshiro256 rng(3);
  const auto g = graph::barabasi_albert(800, 3, rng);
  const auto params = agent_params();
  sim::EnsembleOptions options;
  options.replicas = 10;
  options.t_end = 4.0;
  options.initial_infected = 6;
  options.seed = 77;

  const auto reference = sim::run_ensemble(g, params, options);

  const std::string path = temp_path("ensemble.bin");
  sim::EnsembleCheckpointPolicy policy;
  policy.path = path;
  {
    ThreadCountGuard guard(2);
    const auto full =
        sim::run_ensemble_checkpointed(g, params, options, policy);
    expect_same_ensemble(reference, full);
    EXPECT_EQ(full.replicas_computed, options.replicas);
  }
  {
    ThreadCountGuard guard(8);
    const auto replayed =
        sim::run_ensemble_checkpointed(g, params, options, policy);
    // Everything was already on disk: nothing recomputed, same numbers.
    EXPECT_EQ(replayed.replicas_computed, 0u);
    expect_same_ensemble(reference, replayed);
  }

  // Fabricate the file an interrupted run leaves behind — 3 replicas
  // finished, 7 pending — and resume on yet another thread count. Only
  // the 7 cleared replicas are recomputed; the merged result must still
  // be bit-identical because replica seeds are independent of order and
  // thread count.
  truncate_ensemble_checkpoint(path, 3);
  {
    ThreadCountGuard guard(4);
    const auto resumed =
        sim::run_ensemble_checkpointed(g, params, options, policy);
    EXPECT_EQ(resumed.replicas_computed, options.replicas - 3);
    expect_same_ensemble(reference, resumed);
  }
  fs::remove(path);
}

TEST(EnsembleCheckpoint, FinishedReplicasAreTrustedNotRecomputed) {
  // Plant a sentinel attack rate in a done replica: the resumed mean
  // must reflect the stored value, proving the engine used the file
  // instead of silently recomputing the replica.
  util::Xoshiro256 rng(3);
  const auto g = graph::barabasi_albert(300, 3, rng);
  const auto params = agent_params();
  sim::EnsembleOptions options;
  options.replicas = 4;
  options.t_end = 1.0;
  options.initial_infected = 4;
  options.seed = 5;

  const std::string path = temp_path("ensemble_trust.bin");
  sim::EnsembleCheckpointPolicy policy;
  policy.path = path;
  const auto honest = sim::run_ensemble_checkpointed(g, params, options,
                                                     policy);

  const auto container = io::ContainerReader::open(path);
  io::ByteReader attack_reader = container->reader("ens.attack");
  std::vector<double> attack(options.replicas);
  for (double& a : attack) a = attack_reader.f64();
  const double original = attack[0];
  attack[0] = original + 1000.0;

  io::ContainerWriter writer("ENSEMBLE");
  for (const char* name : {"ens.meta", "ens.done", "ens.infected",
                           "ens.recovered"}) {
    io::ByteWriter copy;
    copy.bytes(container->section(name));
    writer.add_section(name, std::move(copy));
  }
  io::ByteWriter attack_out;
  for (const double a : attack) attack_out.f64(a);
  writer.add_section("ens.attack", std::move(attack_out));
  writer.write_file(path);

  const auto resumed = sim::run_ensemble_checkpointed(g, params, options,
                                                      policy);
  EXPECT_EQ(resumed.replicas_computed, 0u);
  // The shift is huge relative to FP noise, so a loose tolerance
  // separates "used the stored value" from "recomputed" unambiguously.
  EXPECT_NEAR(resumed.mean_attack_rate,
              honest.mean_attack_rate +
                  1000.0 / static_cast<double>(options.replicas),
              1e-9);
  fs::remove(path);
}

TEST(EnsembleCheckpoint, MismatchedConfigurationStartsFresh) {
  util::Xoshiro256 rng(3);
  const auto g = graph::barabasi_albert(400, 3, rng);
  const auto params = agent_params();
  sim::EnsembleOptions options;
  options.replicas = 4;
  options.t_end = 2.0;
  options.initial_infected = 4;
  options.seed = 1;

  const std::string path = temp_path("ensemble_mismatch.bin");
  sim::EnsembleCheckpointPolicy policy;
  policy.path = path;
  sim::run_ensemble_checkpointed(g, params, options, policy);

  // Different seed → the file must be ignored, not misapplied.
  options.seed = 2;
  const auto fresh = sim::run_ensemble_checkpointed(g, params, options,
                                                    policy);
  EXPECT_EQ(fresh.replicas_computed, options.replicas);
  expect_same_ensemble(sim::run_ensemble(g, params, options), fresh);
  fs::remove(path);
}

TEST(EnsembleCheckpoint, CorruptedFileThrows) {
  util::Xoshiro256 rng(3);
  const auto g = graph::barabasi_albert(300, 3, rng);
  const auto params = agent_params();
  sim::EnsembleOptions options;
  options.replicas = 3;
  options.t_end = 1.0;
  options.initial_infected = 3;

  const std::string path = temp_path("ensemble_corrupt.bin");
  sim::EnsembleCheckpointPolicy policy;
  policy.path = path;
  sim::run_ensemble_checkpointed(g, params, options, policy);

  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-9, std::ios::end);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(-9, std::ios::end);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
  file.close();

  EXPECT_THROW(sim::run_ensemble_checkpointed(g, params, options, policy),
               util::IoError);
  fs::remove(path);
}

// ---- forward–backward sweep ----------------------------------------

core::SirNetworkModel small_model() {
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return core::SirNetworkModel(
      core::NetworkProfile::from_pmf({1.0, 3.0, 8.0}, {0.6, 0.3, 0.1}),
      params, core::make_constant_control(0.0, 0.0));
}

control::SweepOptions sweep_base(control::SweepAlgorithm algorithm) {
  control::SweepOptions options;
  options.algorithm = algorithm;
  options.grid_points = 101;
  options.substeps = 4;
  options.j_tolerance = 1e-7;
  return options;
}

void expect_same_sweep(const control::SweepResult& a,
                       const control::SweepResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.epsilon1, b.epsilon1);
  EXPECT_EQ(a.epsilon2, b.epsilon2);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.cost.running, b.cost.running);
  EXPECT_EQ(a.cost.terminal, b.cost.terminal);
}

void sweep_resume_roundtrip(control::SweepAlgorithm algorithm,
                            const std::string& tag) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  const double tf = 20.0;
  const control::CostParams cost;

  const auto reference =
      solve_optimal_control(model, y0, tf, cost, sweep_base(algorithm));
  ASSERT_GT(reference.iterations, 6u)
      << "problem too easy to exercise a mid-run checkpoint";

  // Interrupted run: cap the iteration budget below convergence so the
  // solver exits after writing its final checkpoint...
  const std::string path = temp_path("sweep_" + tag + ".bin");
  control::SweepOptions interrupted = sweep_base(algorithm);
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every = 2;
  interrupted.max_iterations = 5;
  solve_optimal_control(model, y0, tf, cost, interrupted);

  // ...then resume with the full budget and demand the exact reference
  // iterate sequence, objective history included.
  control::SweepOptions resumed_options = sweep_base(algorithm);
  resumed_options.checkpoint_path = path;
  const auto resumed =
      solve_optimal_control(model, y0, tf, cost, resumed_options);
  expect_same_sweep(reference, resumed);
  fs::remove(path);
}

TEST(SweepCheckpoint, FbsmResumeReproducesUninterruptedRun) {
  sweep_resume_roundtrip(control::SweepAlgorithm::kForwardBackward, "fbsm");
}

TEST(SweepCheckpoint, ProjectedGradientResumeReproducesUninterruptedRun) {
  sweep_resume_roundtrip(control::SweepAlgorithm::kProjectedGradient, "pg");
}

TEST(SweepCheckpoint, DifferentCostWeightsStartFresh) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  const std::string path = temp_path("sweep_stale.bin");

  control::SweepOptions options =
      sweep_base(control::SweepAlgorithm::kForwardBackward);
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  options.max_iterations = 3;
  control::CostParams cost;
  solve_optimal_control(model, y0, 20.0, cost, options);
  ASSERT_TRUE(fs::exists(path));

  // A heavier terminal weight (solve_with_terminal_target's escalation)
  // must ignore the stale file and match a checkpoint-free solve.
  cost.terminal_weight *= 10.0;
  options.max_iterations = sweep_base(options.algorithm).max_iterations;
  const auto resumed = solve_optimal_control(model, y0, 20.0, cost, options);
  const auto fresh = solve_optimal_control(
      model, y0, 20.0, cost,
      sweep_base(control::SweepAlgorithm::kForwardBackward));
  expect_same_sweep(fresh, resumed);
  fs::remove(path);
}

TEST(SweepCheckpoint, RoundTripsThroughDisk) {
  control::SweepCheckpoint checkpoint;
  checkpoint.algorithm = 1;
  checkpoint.tf = 12.5;
  checkpoint.c1 = 5.0;
  checkpoint.c2 = 10.0;
  checkpoint.terminal_weight = 100.0;
  checkpoint.grid = {0.0, 1.0, 2.0};
  checkpoint.iteration = 4;
  checkpoint.relaxation = 0.75;
  checkpoint.descent_streak = 3;
  checkpoint.gradient_step = 0.125;
  checkpoint.best_j = 7.25;
  checkpoint.epsilon1 = {0.1, 0.2, 0.3};
  checkpoint.epsilon2 = {0.3, 0.2, 0.1};
  checkpoint.best_epsilon1 = checkpoint.epsilon1;
  checkpoint.best_epsilon2 = checkpoint.epsilon2;
  checkpoint.objective_history = {9.0, 8.0, 7.5, 7.25};

  const std::string path = temp_path("sweep_roundtrip.bin");
  control::save_sweep_checkpoint(checkpoint, path);
  const auto loaded = control::load_sweep_checkpoint(path);
  EXPECT_EQ(loaded.algorithm, checkpoint.algorithm);
  EXPECT_EQ(loaded.iteration, checkpoint.iteration);
  EXPECT_EQ(loaded.relaxation, checkpoint.relaxation);
  EXPECT_EQ(loaded.descent_streak, checkpoint.descent_streak);
  EXPECT_EQ(loaded.gradient_step, checkpoint.gradient_step);
  EXPECT_EQ(loaded.best_j, checkpoint.best_j);
  EXPECT_EQ(loaded.grid, checkpoint.grid);
  EXPECT_EQ(loaded.epsilon1, checkpoint.epsilon1);
  EXPECT_EQ(loaded.epsilon2, checkpoint.epsilon2);
  EXPECT_EQ(loaded.best_epsilon1, checkpoint.best_epsilon1);
  EXPECT_EQ(loaded.best_epsilon2, checkpoint.best_epsilon2);
  EXPECT_EQ(loaded.objective_history, checkpoint.objective_history);
  fs::remove(path);
}

// ---- MPC ------------------------------------------------------------

TEST(MpcCheckpoint, KilledMidRunResumesBitIdentically) {
  const auto model = small_model();
  const auto y0 = model.initial_state(0.02);
  const double tf = 12.0;
  const control::CostParams cost;

  control::MpcOptions options;
  options.replan_interval = 3.0;
  options.plant_dt = 0.05;
  options.sweep = sweep_base(control::SweepAlgorithm::kForwardBackward);
  options.sweep.max_iterations = 40;

  // A deterministic disturbance: the resumed run must re-derive the
  // same post-jump states the uninterrupted run saw.
  const control::Disturbance nudge = [](double, std::span<double> y) {
    for (double& v : y) v *= 0.97;
  };
  const auto reference = control::run_mpc(model, y0, tf, cost, options,
                                          nudge);

  // Kill the run at the t = 6 replan boundary by throwing from the
  // disturbance hook — the closest a unit test gets to SIGKILL. The
  // last checkpoint on disk is the one written after the t = 3 segment.
  const std::string path = temp_path("mpc.bin");
  control::MpcOptions checkpointed = options;
  checkpointed.checkpoint_path = path;
  struct Killed {};
  const control::Disturbance killer = [&](double t, std::span<double> y) {
    if (t > 5.0) throw Killed{};
    nudge(t, y);
  };
  EXPECT_THROW(control::run_mpc(model, y0, tf, cost, checkpointed, killer),
               Killed);
  ASSERT_TRUE(fs::exists(path));

  // Resume with the benign disturbance: segments 2..4 are recomputed
  // from the restored plant state and the result is bit-identical.
  const auto resumed =
      control::run_mpc(model, y0, tf, cost, checkpointed, nudge);
  EXPECT_EQ(resumed.times, reference.times);
  EXPECT_EQ(resumed.epsilon1, reference.epsilon1);
  EXPECT_EQ(resumed.epsilon2, reference.epsilon2);
  EXPECT_EQ(resumed.cost.running, reference.cost.running);
  EXPECT_EQ(resumed.cost.terminal, reference.cost.terminal);
  EXPECT_EQ(resumed.replans, reference.replans);

  // The finished file short-circuits a re-run to the recorded result
  // without integrating anything.
  const auto replayed =
      control::run_mpc(model, y0, tf, cost, checkpointed, nudge);
  EXPECT_EQ(replayed.times, reference.times);
  EXPECT_EQ(replayed.epsilon1, reference.epsilon1);
  EXPECT_EQ(replayed.cost.running, reference.cost.running);
  EXPECT_EQ(replayed.replans, reference.replans);
  fs::remove(path);
}

TEST(MpcCheckpoint, DifferentInitialStateStartsFresh) {
  const auto model = small_model();
  const double tf = 6.0;
  const control::CostParams cost;
  control::MpcOptions options;
  options.replan_interval = 3.0;
  options.plant_dt = 0.05;
  options.sweep = sweep_base(control::SweepAlgorithm::kForwardBackward);
  options.sweep.max_iterations = 30;
  options.checkpoint_path = temp_path("mpc_fresh.bin");

  control::run_mpc(model, model.initial_state(0.02), tf, cost, options);
  const auto y0b = model.initial_state(0.05);
  const auto resumed = control::run_mpc(model, y0b, tf, cost, options);

  control::MpcOptions plain = options;
  plain.checkpoint_path.clear();
  const auto fresh = control::run_mpc(model, y0b, tf, cost, plain);
  EXPECT_EQ(resumed.times, fresh.times);
  EXPECT_EQ(resumed.epsilon1, fresh.epsilon1);
  EXPECT_EQ(resumed.cost.running, fresh.cost.running);
  fs::remove(options.checkpoint_path);
}

}  // namespace
}  // namespace rumor
