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

#include <bit>
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
    path = (std::filesystem::temp_directory_path() / name).string();
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
    // Bitwise: both sides are the same fixed-order gather — the
    // uninterrupted run's memo (or its re-gather when stale) and the
    // resumed run's rebuild from the restored node states.
    EXPECT_EQ(simulation.hazard(id), resumed.hazard(id)) << "node " << v;
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
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simulation.hazard(id)),
              std::bit_cast<std::uint64_t>(resumed.hazard(id)))
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
  // cross-check the exposure counts and the hazards — bit for bit, as
  // the dispatched gather_sum kernel over v's CSR list — against a fresh
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
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto k =
        static_cast<double>(g.degree(static_cast<graph::NodeId>(v)));
    omega_over_k[v] = k > 0.0 ? params.omega(k) / k : 0.0;
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
      ASSERT_EQ(simulation.exposure_count(id), count) << "node " << v;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(simulation.hazard(id)),
                std::bit_cast<std::uint64_t>(fresh))
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

}  // namespace
}  // namespace rumor::sim
