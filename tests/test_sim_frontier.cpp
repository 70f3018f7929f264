// The frontier engine's contract: it is a bit-exact replica of the
// dense reference sweep — same per-(seed, step, node) draw streams,
// same fixed-order hazard gathers — that merely skips nodes which
// provably cannot flip. These tests pin that equivalence across thread
// counts, graph directedness, control-schedule mode switches, and
// checkpoint/resume (including resuming a dense checkpoint under the
// frontier engine), stress-check the incremental exposure counts and
// the memoized hazards against fresh recomputation, and pin the memo's
// saving with the deterministic edges_scanned() work counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "io/container.hpp"
#include "kern/kern.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace rumor::sim {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t threads) {
    util::set_num_threads(threads);
  }
  ~ThreadCountGuard() { util::set_num_threads(0); }
};

struct Trajectory {
  std::vector<Census> history;
  std::vector<Compartment> final_state;
  std::size_t ever_infected = 0;
};

Trajectory run_engine(const graph::Graph& g, AgentParams params,
                      AgentEngine engine, std::size_t threads,
                      int steps, std::uint64_t seed = 321) {
  ThreadCountGuard guard(threads);
  params.engine = engine;
  AgentSimulation simulation(g, params, seed);
  simulation.seed_random_infections(10);
  Trajectory out;
  out.history.push_back(simulation.census());
  for (int s = 0; s < steps; ++s) {
    simulation.step();
    out.history.push_back(simulation.census());
  }
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    out.final_state.push_back(
        simulation.state(static_cast<graph::NodeId>(v)));
  }
  out.ever_infected = simulation.ever_infected();
  return out;
}

void expect_identical(const Trajectory& a, const Trajectory& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t s = 0; s < a.history.size(); ++s) {
    ASSERT_EQ(a.history[s].susceptible, b.history[s].susceptible)
        << "step " << s;
    ASSERT_EQ(a.history[s].infected, b.history[s].infected) << "step " << s;
    ASSERT_EQ(a.history[s].recovered, b.history[s].recovered)
        << "step " << s;
  }
  EXPECT_EQ(a.final_state, b.final_state);
  EXPECT_EQ(a.ever_infected, b.ever_infected);
}

graph::Graph test_graph() {
  util::Xoshiro256 rng(17);
  return graph::barabasi_albert(3000, 3, rng);
}

AgentParams base_params(double eps1, double eps2) {
  AgentParams params;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon1 = eps1;
  params.epsilon2 = eps2;
  params.dt = 0.1;
  return params;
}

TEST(SimFrontier, MatchesDenseWithImmunization) {
  // ε1 > 0 drives the frontier engine's full-sweep mode every step.
  const auto g = test_graph();
  const auto params = base_params(0.02, 0.15);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    expect_identical(dense, run_engine(g, params, AgentEngine::kFrontier,
                                       threads, 80));
  }
}

TEST(SimFrontier, MatchesDenseWithImmunizationOnRaggedLastChunk) {
  // 5003 nodes: the last full-sweep chunk holds 907 nodes and ends in a
  // mask word of 11, which no vector width divides, so the sweep
  // kernel's per-node remainder decides real nodes every step.
  util::Xoshiro256 rng(53);
  const auto g = graph::barabasi_albert(5003, 4, rng);
  const auto params = base_params(0.02, 0.1);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
  EXPECT_GT(dense.ever_infected, 200u);  // the rumor really spreads
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    expect_identical(dense, run_engine(g, params, AgentEngine::kFrontier,
                                       threads, 80));
  }
}

TEST(SimFrontier, MatchesDenseInSparseMode) {
  // ε1 = 0, ε2 > 0: the sparse path visits only the active and
  // infected sets.
  const auto g = test_graph();
  const auto params = base_params(0.0, 0.15);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    expect_identical(dense, run_engine(g, params, AgentEngine::kFrontier,
                                       threads, 80));
  }
}

TEST(SimFrontier, MatchesDenseWithPureSpreading) {
  // ε1 = ε2 = 0: the sparse path skips the infected loop entirely.
  const auto g = test_graph();
  const auto params = base_params(0.0, 0.0);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 60);
  expect_identical(dense,
                   run_engine(g, params, AgentEngine::kFrontier, 8, 60));
}

TEST(SimFrontier, MatchesDenseOnDirectedGraphs) {
  // Directed graphs split "who exposes me" (reverse CSR, gathers) from
  // "whom I expose" (forward CSR, scatters).
  graph::GraphBuilder builder(500, /*directed=*/true);
  util::Xoshiro256 rng(23);
  for (int e = 0; e < 3000; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(500));
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(500));
    if (u != v) builder.add_edge(u, v);
  }
  const auto g = std::move(builder).build(/*deduplicate=*/true);
  for (const double eps1 : {0.0, 0.05}) {
    const auto params = base_params(eps1, 0.1);
    const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
    expect_identical(dense,
                     run_engine(g, params, AgentEngine::kFrontier, 8, 80));
  }
}

TEST(SimFrontier, MatchesDenseAcrossControlScheduleModeSwitches) {
  // A schedule whose ε1 turns on mid-run flips the frontier engine
  // between its sparse and full-sweep modes; the trajectory must not
  // notice.
  const auto g = test_graph();
  const auto params = base_params(0.0, 0.0);
  const auto schedule = std::make_shared<const core::FunctionControl>(
      [](double t) { return t >= 2.0 && t < 5.0 ? 0.3 : 0.0; },
      [](double t) { return t >= 3.0 ? 0.2 : 0.0; });

  auto run = [&](AgentEngine engine, std::size_t threads) {
    ThreadCountGuard guard(threads);
    AgentParams p = params;
    p.engine = engine;
    AgentSimulation simulation(g, p, /*seed=*/99);
    simulation.seed_random_infections(10);
    simulation.set_control_schedule(schedule);
    Trajectory out;
    for (int s = 0; s < 80; ++s) {
      simulation.step();
      out.history.push_back(simulation.census());
    }
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      out.final_state.push_back(
          simulation.state(static_cast<graph::NodeId>(v)));
    }
    out.ever_infected = simulation.ever_infected();
    return out;
  };

  const auto dense = run(AgentEngine::kDense, 1);
  expect_identical(dense, run(AgentEngine::kFrontier, 1));
  expect_identical(dense, run(AgentEngine::kFrontier, 8));
}

// ---- checkpoint / resume -------------------------------------------

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = test::temp_path(name);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

TEST(SimFrontier, CheckpointResumeIsBitIdentical) {
  const auto g = test_graph();
  auto params = base_params(0.02, 0.15);
  params.engine = AgentEngine::kFrontier;

  // Uninterrupted reference run.
  const auto reference =
      run_engine(g, params, AgentEngine::kFrontier, 1, 80);

  for (const std::size_t resume_threads : {1UL, 2UL, 8UL}) {
    TempFile file("frontier_resume_" + std::to_string(resume_threads) +
                  ".ckpt");
    {
      ThreadCountGuard guard(1);
      AgentSimulation simulation(g, params, /*seed=*/321);
      simulation.seed_random_infections(10);
      for (int s = 0; s < 40; ++s) simulation.step();
      save_agent_checkpoint(simulation, file.path);
    }
    ThreadCountGuard guard(resume_threads);
    AgentSimulation resumed(g, params, /*seed=*/0);
    load_agent_checkpoint(resumed, file.path);
    EXPECT_EQ(resumed.step_count(), 40u);
    for (int s = 40; s < 80; ++s) resumed.step();
    std::vector<Compartment> final_state;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      final_state.push_back(resumed.state(static_cast<graph::NodeId>(v)));
    }
    EXPECT_EQ(final_state, reference.final_state);
    EXPECT_EQ(resumed.ever_infected(), reference.ever_infected);
    const Census final_census = resumed.census();
    EXPECT_EQ(final_census.susceptible, reference.history.back().susceptible);
    EXPECT_EQ(final_census.infected, reference.history.back().infected);
  }
}

TEST(SimFrontier, FrontierCheckpointRoundTripsHazardBitwise) {
  const auto g = test_graph();
  auto params = base_params(0.0, 0.1);
  params.engine = AgentEngine::kFrontier;
  TempFile file("frontier_hazard.ckpt");

  AgentSimulation simulation(g, params, /*seed=*/7);
  simulation.seed_random_infections(15);
  for (int s = 0; s < 30; ++s) simulation.step();
  save_agent_checkpoint(simulation, file.path);

  AgentSimulation resumed(g, params, /*seed=*/0);
  load_agent_checkpoint(resumed, file.path);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    // Exact: both sides come from the same fixed-order gather — the
    // uninterrupted run's memo (or its re-gather when stale) and the
    // resumed run's rebuild from the restored node states.
    EXPECT_EQ(simulation.infection_threshold(id),
              resumed.infection_threshold(id))
        << "node " << v;
    EXPECT_EQ(simulation.exposure_count(id), resumed.exposure_count(id));
  }
  EXPECT_EQ(simulation.active_count(), resumed.active_count());
}

TEST(SimFrontier, DenseCheckpointResumesUnderFrontierEngine) {
  // Engine choice is not part of the trajectory: a checkpoint written
  // by the dense engine (no hazard section) must resume under the
  // frontier engine onto the same trajectory, and vice versa.
  const auto g = test_graph();
  const auto params = base_params(0.02, 0.15);
  const auto reference = run_engine(g, params, AgentEngine::kDense, 1, 80);

  TempFile file("cross_engine.ckpt");
  {
    AgentParams dense = params;
    dense.engine = AgentEngine::kDense;
    AgentSimulation simulation(g, dense, /*seed=*/321);
    simulation.seed_random_infections(10);
    for (int s = 0; s < 40; ++s) simulation.step();
    save_agent_checkpoint(simulation, file.path);
  }
  AgentParams frontier = params;
  frontier.engine = AgentEngine::kFrontier;
  AgentSimulation resumed(g, frontier, /*seed=*/0);
  load_agent_checkpoint(resumed, file.path);
  for (int s = 40; s < 80; ++s) resumed.step();
  std::vector<Compartment> final_state;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    final_state.push_back(resumed.state(static_cast<graph::NodeId>(v)));
  }
  EXPECT_EQ(final_state, reference.final_state);
  EXPECT_EQ(resumed.ever_infected(), reference.ever_infected);
}

TEST(SimFrontier, StaleHazardSectionIsIgnoredOnResume) {
  // Older writers stored the incremental hazard sums in an agent.hazard
  // section. Restore must never trust them: a container whose section
  // holds garbage resumes onto the uninterrupted trajectory bit for bit,
  // with every hazard re-gathered from the node states.
  const auto g = test_graph();
  auto params = base_params(0.02, 0.15);
  params.engine = AgentEngine::kFrontier;
  const auto reference =
      run_engine(g, params, AgentEngine::kFrontier, 1, 80);

  TempFile file("frontier_bad_hazard.ckpt");
  AgentSimulation simulation(g, params, /*seed=*/321);
  simulation.seed_random_infections(10);
  for (int s = 0; s < 40; ++s) simulation.step();
  {
    io::ContainerWriter writer(kAgentRunKind);
    append_agent_checkpoint(writer, simulation);
    io::ByteWriter hazard;
    hazard.u64(g.num_nodes());
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      hazard.f64(v % 3 == 0   ? 1e300
                 : v % 3 == 1 ? -1.0
                              : std::numeric_limits<double>::quiet_NaN());
    }
    writer.add_section("agent.hazard", std::move(hazard));
    writer.write_file(file.path);
  }

  ThreadCountGuard guard(2);
  AgentSimulation resumed(g, params, /*seed=*/0);
  load_agent_checkpoint(resumed, file.path);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    EXPECT_EQ(simulation.infection_threshold(id),
              resumed.infection_threshold(id))
        << "node " << v;
  }
  for (int s = 40; s < 80; ++s) resumed.step();
  std::vector<Compartment> final_state;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    final_state.push_back(resumed.state(static_cast<graph::NodeId>(v)));
  }
  EXPECT_EQ(final_state, reference.final_state);
  EXPECT_EQ(resumed.ever_infected(), reference.ever_infected);
}

// ---- incremental-structure stress test -----------------------------

TEST(SimFrontier, MemoizedHazardIsExactGatherUnderStress) {
  // Randomized workload: spreading dynamics interleaved with external
  // seeding and blocking (the operations that scatter exposure deltas),
  // under a schedule that switches ε1 on and off so both decision paths
  // (full sweep and active list) write memos. Every few steps,
  // cross-check the exposure counts and the memoized infection
  // thresholds — exactly, as bernoulli_threshold of the trial on the
  // dispatched gather_sum kernel over v's CSR list — against a fresh
  // recomputation from the node states, and verify the active set is
  // exactly {susceptible v : exposure_count(v) > 0}.
  util::Xoshiro256 graph_rng(29);
  const auto g = graph::barabasi_albert(1200, 4, graph_rng);
  auto params = base_params(0.0, 0.2);
  params.engine = AgentEngine::kFrontier;
  AgentSimulation simulation(g, params, /*seed=*/555);
  simulation.seed_random_infections(20);
  simulation.set_control_schedule(
      std::make_shared<const core::FunctionControl>(
          [](double t) { return std::fmod(t, 2.0) < 1.0 ? 0.0 : 0.05; },
          [](double) { return 0.2; }));

  std::vector<double> omega_over_k(g.num_nodes(), 0.0);
  std::vector<double> lambda_over_k(g.num_nodes(), 0.0);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto k =
        static_cast<double>(g.degree(static_cast<graph::NodeId>(v)));
    omega_over_k[v] = k > 0.0 ? params.omega(k) / k : 0.0;
    lambda_over_k[v] = k > 0.0 ? params.lambda(k) / k : 0.0;
  }

  const kern::Ops& ops = kern::ops();
  std::vector<double> infected_weight(g.num_nodes());
  util::Xoshiro256 chaos(31337);
  for (int round = 0; round < 40; ++round) {
    for (int s = 0; s < 3; ++s) simulation.step();
    // Random external interventions, including re-seeding recovered
    // nodes (allowed: a rumor variant re-infecting a past spreader).
    std::vector<graph::NodeId> touched;
    for (int k = 0; k < 5; ++k) {
      touched.push_back(static_cast<graph::NodeId>(
          chaos.uniform_index(g.num_nodes())));
    }
    if (round % 2 == 0) {
      simulation.seed_infections(touched);
    } else {
      simulation.block_nodes(touched);
    }

    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
      infected_weight[u] =
          simulation.state(static_cast<graph::NodeId>(u)) ==
                  Compartment::kInfected
              ? omega_over_k[u]
              : 0.0;
    }
    std::size_t expected_active = 0;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      const auto id = static_cast<graph::NodeId>(v);
      const auto sources = g.neighbors(id);
      std::uint32_t count = 0;
      for (const graph::NodeId u : sources) {
        if (simulation.state(u) == Compartment::kInfected) ++count;
      }
      const double fresh = ops.gather_sum(infected_weight.data(),
                                          sources.data(), sources.size());
      const double rate = lambda_over_k[v] * fresh;
      const std::uint64_t threshold =
          fresh > 0.0
              ? util::bernoulli_threshold(1.0 - std::exp(-rate * params.dt))
              : 0;
      ASSERT_EQ(simulation.exposure_count(id), count) << "node " << v;
      ASSERT_EQ(simulation.infection_threshold(id), threshold)
          << "node " << v;
      if (simulation.state(id) == Compartment::kSusceptible && count > 0) {
        ++expected_active;
      }
    }
    ASSERT_EQ(simulation.active_count(), expected_active);
    if (simulation.census().infected == 0) break;
  }
}

TEST(SimFrontier, EdgesScannedStaysNearFrontierScale) {
  // The point of the engine: per-step edge work tracks the frontier,
  // not the graph. At ~1% prevalence on this graph the dense engine
  // touches every susceptible's full exposure list; the frontier
  // engine must touch at least 10x fewer CSR entries per step.
  util::Xoshiro256 rng(41);
  const auto g = graph::barabasi_albert(20000, 3, rng);
  auto params = base_params(0.0, 0.05);
  params.lambda = core::Acceptance::linear(0.2);  // slow growth

  auto edges_per_step = [&](AgentEngine engine) {
    AgentParams p = params;
    p.engine = engine;
    AgentSimulation simulation(g, p, /*seed=*/11);
    // Seed late (low-degree) nodes so the frontier starts small.
    simulation.seed_infections({19990, 19991, 19992, 19993, 19994});
    const std::uint64_t before = simulation.edges_scanned();
    for (int s = 0; s < 10; ++s) simulation.step();
    return (simulation.edges_scanned() - before) / 10;
  };

  const auto dense = edges_per_step(AgentEngine::kDense);
  const auto frontier = edges_per_step(AgentEngine::kFrontier);
  EXPECT_GT(dense, 10 * frontier)
      << "dense=" << dense << " frontier=" << frontier;
}

TEST(SimFrontier, EdgesScannedStaysNearFrontierScaleWithImmunization) {
  // ε1 > 0 puts the frontier engine on its full-sweep path every step.
  // The sweep visits every node, but the hazard memo means it gathers
  // only exposed susceptibles whose sources changed compartment. At 1%
  // prevalence re-gathering every exposed susceptible each step would
  // cost about a sixth of the dense sweep; the memo must stay at least
  // 10x below dense.
  util::Xoshiro256 rng(41);
  const auto g = graph::barabasi_albert(20000, 3, rng);
  auto params = base_params(0.01, 0.05);
  params.lambda = core::Acceptance::linear(0.2);  // slow growth

  auto edges_per_step = [&](AgentEngine engine) {
    AgentParams p = params;
    p.engine = engine;
    AgentSimulation simulation(g, p, /*seed=*/11);
    simulation.seed_random_infections(200);
    // The first step gathers every freshly seeded neighborhood once.
    simulation.step();
    const std::uint64_t before = simulation.edges_scanned();
    for (int s = 0; s < 10; ++s) simulation.step();
    return (simulation.edges_scanned() - before) / 10;
  };

  const auto dense = edges_per_step(AgentEngine::kDense);
  const auto frontier = edges_per_step(AgentEngine::kFrontier);
  EXPECT_GE(dense, 10 * frontier)
      << "dense=" << dense << " frontier=" << frontier;
}

TEST(SimFrontier, StepAfterQuietStepGathersNothing) {
  // After a step with no transitions every exposed susceptible holds a
  // fresh memo, so the next step's only CSR work is the scatter of its
  // own flips into or out of I: Σ degree over those nodes, not one
  // gathered entry more. Checked on both decision paths (ε1 tiny but
  // positive takes the full sweep).
  util::Xoshiro256 rng(43);
  const auto g = graph::barabasi_albert(3000, 3, rng);
  for (const double eps1 : {0.0, 1e-4}) {
    auto params = base_params(eps1, 0.02);
    params.lambda = core::Acceptance::linear(0.05);
    params.engine = AgentEngine::kFrontier;
    AgentSimulation simulation(g, params, /*seed=*/13);
    simulation.seed_random_infections(5);

    auto snapshot = [&] {
      std::vector<Compartment> states(g.num_nodes());
      for (std::size_t v = 0; v < g.num_nodes(); ++v) {
        states[v] = simulation.state(static_cast<graph::NodeId>(v));
      }
      return states;
    };
    std::vector<Compartment> before = snapshot();
    bool previous_quiet = false;
    int checked = 0;
    for (int s = 0; s < 300 && simulation.census().infected > 0; ++s) {
      const std::size_t active = simulation.active_count();
      const std::uint64_t edges_before = simulation.edges_scanned();
      simulation.step();
      const std::vector<Compartment> after = snapshot();
      std::uint64_t scatter = 0;
      for (std::size_t v = 0; v < g.num_nodes(); ++v) {
        if ((before[v] == Compartment::kInfected) !=
            (after[v] == Compartment::kInfected)) {
          scatter += g.degree(static_cast<graph::NodeId>(v));
        }
      }
      if (previous_quiet && active > 0) {
        EXPECT_EQ(simulation.edges_scanned() - edges_before, scatter)
            << "eps1=" << eps1 << " step " << s;
        ++checked;
      }
      previous_quiet = after == before;
      before = after;
    }
    EXPECT_GT(checked, 10) << "eps1=" << eps1;
  }
}

// ---- partitioned apply ---------------------------------------------

// 2 × 32768 + 5003 nodes: three apply partitions, the last one ragged
// (partitions are 32768 nodes until n exceeds 64 of them).
constexpr std::size_t kMultiPartitionNodes = 2 * 32768 + 5003;

graph::Graph multi_partition_graph() {
  util::Xoshiro256 rng(61);
  return graph::barabasi_albert(kMultiPartitionNodes, 4, rng);
}

// Faster spreading than base_params, so a few dozen steps reach every
// partition of the larger graph.
AgentParams multi_params(double eps1, double eps2) {
  AgentParams params = base_params(eps1, eps2);
  params.lambda = core::Acceptance::linear(3.0);
  return params;
}

// ε1 switches on and off and ε2 turns on later, so runs cross both
// decision paths and the mode switches between them.
std::shared_ptr<const core::ControlSchedule> mode_switching_schedule() {
  return std::make_shared<const core::FunctionControl>(
      [](double t) { return std::fmod(t, 2.0) < 1.0 ? 0.0 : 0.05; },
      [](double t) { return t >= 1.5 ? 0.1 : 0.0; });
}

Trajectory run_scheduled(const graph::Graph& g, AgentParams params,
                         AgentEngine engine, std::size_t threads, int steps,
                         std::shared_ptr<const core::ControlSchedule> schedule) {
  ThreadCountGuard guard(threads);
  params.engine = engine;
  AgentSimulation simulation(g, params, /*seed=*/321);
  simulation.seed_random_infections(10);
  simulation.set_control_schedule(std::move(schedule));
  Trajectory out;
  out.history.push_back(simulation.census());
  for (int s = 0; s < steps; ++s) {
    simulation.step();
    out.history.push_back(simulation.census());
  }
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    out.final_state.push_back(simulation.state(static_cast<graph::NodeId>(v)));
  }
  out.ever_infected = simulation.ever_infected();
  return out;
}

TEST(SimFrontier, PartitionSizeDependsOnNodeCountOnly) {
  const auto g = multi_partition_graph();
  for (const std::size_t threads : {1UL, 8UL}) {
    ThreadCountGuard guard(threads);
    AgentSimulation simulation(g, base_params(0.0, 0.1), /*seed=*/1);
    EXPECT_EQ(simulation.partition_nodes(), 32768u);
  }
  // A graph below the floor is one partition.
  AgentSimulation small(test_graph(), base_params(0.0, 0.1), /*seed=*/1);
  EXPECT_GE(small.partition_nodes(), small.num_nodes());
}

TEST(SimFrontier, MatchesDenseOnMultiPartitionGraph) {
  // The same contract as the single-partition tests above, on a graph
  // whose apply splits into three partitions (the last ragged), so the
  // per-partition replay, slices and census reduction all matter.
  const auto g = multi_partition_graph();
  struct Case {
    const char* name;
    double eps1, eps2;
    bool scheduled;
  };
  for (const Case c : {Case{"immunization", 0.02, 0.1, false},
                       Case{"sparse", 0.0, 0.1, false},
                       Case{"mode switches", 0.0, 0.0, true}}) {
    const auto params = multi_params(c.eps1, c.eps2);
    const auto schedule = c.scheduled ? mode_switching_schedule() : nullptr;
    const auto dense =
        run_scheduled(g, params, AgentEngine::kDense, 1, 60, schedule);
    // The rumor reaches every partition.
    std::array<std::size_t, 3> reached{};
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      if (dense.final_state[v] != Compartment::kSusceptible) {
        ++reached[v / 32768];
      }
    }
    for (const std::size_t r : reached) EXPECT_GT(r, 100u) << c.name;
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
      SCOPED_TRACE(std::string(c.name) + ", threads " +
                   std::to_string(threads));
      expect_identical(dense, run_scheduled(g, params, AgentEngine::kFrontier,
                                            threads, 60, schedule));
    }
  }
}

// Brute-force recount of the frontier structures from the node states.
void expect_frontier_exact(const graph::Graph& g,
                           const AgentSimulation& simulation) {
  std::vector<graph::NodeId> expected_active, expected_infected;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    std::uint32_t count = 0;
    for (const graph::NodeId u : g.neighbors(id)) {
      if (simulation.state(u) == Compartment::kInfected) ++count;
    }
    ASSERT_EQ(simulation.exposure_count(id), count) << "node " << v;
    if (simulation.state(id) == Compartment::kInfected) {
      expected_infected.push_back(id);
    } else if (simulation.state(id) == Compartment::kSusceptible &&
               count > 0) {
      expected_active.push_back(id);
    }
  }
  EXPECT_EQ(simulation.active_count(), expected_active.size());
  auto active = simulation.active_nodes();
  auto infected = simulation.infected_nodes();
  std::sort(active.begin(), active.end());
  std::sort(infected.begin(), infected.end());
  EXPECT_EQ(active, expected_active);
  EXPECT_EQ(infected, expected_infected);
  const Census census = simulation.census();
  EXPECT_EQ(census.infected, expected_infected.size());
  std::size_t susceptible = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (simulation.state(static_cast<graph::NodeId>(v)) ==
        Compartment::kSusceptible) {
      ++susceptible;
    }
  }
  EXPECT_EQ(census.susceptible, susceptible);
}

TEST(SimFrontier, FrontierStructuresMatchBruteForceEveryStep) {
  const auto g = multi_partition_graph();
  for (const std::size_t threads : {2UL, 8UL}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadCountGuard guard(threads);
    auto params = multi_params(0.0, 0.0);
    params.engine = AgentEngine::kFrontier;
    AgentSimulation simulation(g, params, /*seed=*/77);
    simulation.seed_random_infections(10);
    simulation.set_control_schedule(mode_switching_schedule());
    for (int s = 0; s < 40; ++s) {
      simulation.step();
      SCOPED_TRACE("step " + std::to_string(s));
      expect_frontier_exact(g, simulation);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(simulation.ever_infected(), 1000u);
  }
}

TEST(SimFrontier, SeedAndBlockHandleDuplicatesAndAnyFromState) {
  // External moves may list a node twice and may find it in any
  // compartment — re-seeding a recovered node included. Both engines
  // must agree on the census and on the trajectory that follows, and
  // the frontier sets must stay exact.
  const auto g = multi_partition_graph();
  const auto params = multi_params(0.0, 0.2);
  auto run = [&](AgentEngine engine) {
    ThreadCountGuard guard(4);
    AgentParams p = params;
    p.engine = engine;
    auto simulation = std::make_unique<AgentSimulation>(g, p, /*seed=*/5);
    simulation->seed_infections({3, 70000, 3, 40000, 70000, 3});
    EXPECT_EQ(simulation->census().infected, 3u);
    EXPECT_EQ(simulation->ever_infected(), 3u);
    for (int s = 0; s < 20; ++s) simulation->step();
    // Block a mix of S, I and R nodes, some listed twice.
    std::vector<graph::NodeId> block;
    for (std::size_t v = 0; v < g.num_nodes(); v += 97) {
      block.push_back(static_cast<graph::NodeId>(v));
      if (v % 3 == 0) block.push_back(static_cast<graph::NodeId>(v));
    }
    simulation->block_nodes(block);
    // Re-seed recovered nodes (blocked above or by the dynamics),
    // already-infected ones and susceptibles, with duplicates.
    std::vector<graph::NodeId> seeds;
    for (std::size_t v = 0; v < g.num_nodes(); v += 41) {
      seeds.push_back(static_cast<graph::NodeId>(v));
    }
    for (std::size_t v = 0; v < g.num_nodes(); v += 97 * 5) {
      seeds.push_back(static_cast<graph::NodeId>(v));
    }
    const std::size_t ever_before = simulation->ever_infected();
    std::size_t newly_infected = 0;
    std::vector<bool> counted(g.num_nodes(), false);
    for (const graph::NodeId v : seeds) {
      if (!counted[v] && simulation->state(v) != Compartment::kInfected) {
        ++newly_infected;
      }
      counted[v] = true;
    }
    simulation->seed_infections(seeds);
    EXPECT_EQ(simulation->ever_infected(), ever_before + newly_infected);
    return simulation;
  };
  const auto dense = run(AgentEngine::kDense);
  const auto frontier = run(AgentEngine::kFrontier);
  expect_frontier_exact(g, *frontier);
  const Census a = dense->census(), b = frontier->census();
  EXPECT_EQ(a.susceptible, b.susceptible);
  EXPECT_EQ(a.infected, b.infected);
  EXPECT_EQ(dense->ever_infected(), frontier->ever_infected());
  for (int s = 0; s < 20; ++s) {
    dense->step();
    frontier->step();
  }
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    ASSERT_EQ(dense->state(id), frontier->state(id)) << "node " << v;
  }
  expect_frontier_exact(g, *frontier);
}

// Serial reference of the frontier lists: one slice per partition with
// swap-remove, fed a step's transitions in record order, each node's
// own move before its scatter over its CSR neighbors.
class SerialApplyModel {
 public:
  SerialApplyModel(const graph::Graph& g, const AgentSimulation& simulation)
      : g_(g),
        span_(simulation.partition_nodes()),
        count_(g.num_nodes(), 0),
        state_(g.num_nodes()),
        active_(g, span_),
        infected_(g, span_) {
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      state_[v] = simulation.state(static_cast<graph::NodeId>(v));
      for (const graph::NodeId u : g.neighbors(static_cast<graph::NodeId>(v))) {
        if (simulation.state(u) == Compartment::kInfected) ++count_[v];
      }
    }
    for (const graph::NodeId v : simulation.active_nodes()) active_.add(v);
    for (const graph::NodeId v : simulation.infected_nodes()) infected_.add(v);
  }

  void move(graph::NodeId v, Compartment to) {
    const Compartment from = state_[v];
    if (from == to) return;
    if (from == Compartment::kSusceptible) active_.remove_if_present(v);
    if (from == Compartment::kInfected) infected_.remove_if_present(v);
    if (to == Compartment::kInfected) infected_.add(v);
    state_[v] = to;
    if (to != Compartment::kInfected && from != Compartment::kInfected) return;
    for (const graph::NodeId t : g_.neighbors(v)) {
      if (to == Compartment::kInfected) {
        if (++count_[t] == 1 && state_[t] == Compartment::kSusceptible) {
          active_.add(t);
        }
      } else if (--count_[t] == 0) {
        active_.remove_if_present(t);
      }
    }
  }

  std::vector<graph::NodeId> active() const { return active_.concat(); }
  std::vector<graph::NodeId> infected() const { return infected_.concat(); }

 private:
  class Slices {
   public:
    Slices(const graph::Graph& g, std::size_t span)
        : span_(span),
          slices_((g.num_nodes() + span - 1) / span),
          pos_(g.num_nodes(), kAbsent) {}
    void add(graph::NodeId v) {
      auto& slice = slices_[v / span_];
      pos_[v] = slice.size();
      slice.push_back(v);
    }
    void remove_if_present(graph::NodeId v) {
      if (pos_[v] == kAbsent) return;
      auto& slice = slices_[v / span_];
      const graph::NodeId last = slice.back();
      slice[pos_[v]] = last;
      pos_[last] = pos_[v];
      slice.pop_back();
      pos_[v] = kAbsent;
    }
    std::vector<graph::NodeId> concat() const {
      std::vector<graph::NodeId> out;
      for (const auto& slice : slices_) {
        out.insert(out.end(), slice.begin(), slice.end());
      }
      return out;
    }

   private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};
    std::size_t span_;
    std::vector<std::vector<graph::NodeId>> slices_;
    std::vector<std::size_t> pos_;
  };

  const graph::Graph& g_;
  std::size_t span_;
  std::vector<std::uint32_t> count_;
  std::vector<Compartment> state_;
  Slices active_, infected_;
};

TEST(SimFrontier, PartitionReplayFollowsSerialApplyOrder) {
  // Each partition must replay exactly the serial apply order restricted
  // to its own nodes — the order that makes the slices' contents and
  // order a function of the trajectory alone. Steps on both decision
  // paths and external moves large enough to need several apply rounds
  // are checked against the serial model, at several thread counts.
  const auto g = multi_partition_graph();
  for (const std::size_t threads : {1UL, 3UL, 8UL}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadCountGuard guard(threads);
    auto params = multi_params(0.0, 0.0);
    params.engine = AgentEngine::kFrontier;
    AgentSimulation simulation(g, params, /*seed=*/19);
    simulation.set_control_schedule(mode_switching_schedule());

    auto check = [&](const SerialApplyModel& model, const char* what) {
      ASSERT_EQ(simulation.active_nodes(), model.active()) << what;
      ASSERT_EQ(simulation.infected_nodes(), model.infected()) << what;
    };
    auto external = [&](const std::vector<graph::NodeId>& nodes,
                        Compartment to) {
      SerialApplyModel model(g, simulation);
      std::vector<bool> listed(g.num_nodes(), false);
      for (const graph::NodeId v : nodes) {
        if (!listed[v]) model.move(v, to);
        listed[v] = true;
      }
      if (to == Compartment::kInfected) {
        simulation.seed_infections(nodes);
      } else {
        simulation.block_nodes(nodes);
      }
      check(model, "external move");
    };
    auto step = [&] {
      SerialApplyModel model(g, simulation);
      const double t = simulation.time();
      const bool sweep = std::fmod(t, 2.0) >= 1.0;  // ε1 > 0
      std::vector<Compartment> before(g.num_nodes());
      for (std::size_t v = 0; v < g.num_nodes(); ++v) {
        before[v] = simulation.state(static_cast<graph::NodeId>(v));
      }
      std::vector<graph::NodeId> visit;
      if (sweep) {
        for (std::size_t v = 0; v < g.num_nodes(); ++v) {
          visit.push_back(static_cast<graph::NodeId>(v));
        }
      } else {
        visit = simulation.active_nodes();
        const auto infected = simulation.infected_nodes();
        visit.insert(visit.end(), infected.begin(), infected.end());
      }
      simulation.step();
      for (const graph::NodeId v : visit) {
        const Compartment after = simulation.state(v);
        if (after != before[v]) model.move(v, after);
      }
      check(model, sweep ? "sweep step" : "sparse step");
    };

    std::vector<graph::NodeId> seeds = {5, 40001, 70500, 5, 12345};
    external(seeds, Compartment::kInfected);
    for (int s = 0; s < 30 && !HasFatalFailure(); ++s) step();
    // Every second node, some listed twice: more planned ops than one
    // apply round holds.
    std::vector<graph::NodeId> many;
    for (std::size_t v = 0; v < g.num_nodes(); v += 2) {
      many.push_back(static_cast<graph::NodeId>(v));
      if (v % 10 == 0) many.push_back(static_cast<graph::NodeId>(v));
    }
    if (!HasFatalFailure()) external(many, Compartment::kInfected);
    for (int s = 0; s < 5 && !HasFatalFailure(); ++s) step();
    std::vector<graph::NodeId> blocks(many.rbegin(), many.rend());
    blocks.resize(blocks.size() / 2);
    if (!HasFatalFailure()) external(blocks, Compartment::kRecovered);
    for (int s = 0; s < 5 && !HasFatalFailure(); ++s) step();
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace rumor::sim
