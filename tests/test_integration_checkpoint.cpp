// End-to-end kill-and-resume: a forked child runs a checkpointed agent
// simulation and SIGKILLs itself mid-run — no destructors, no flushes,
// like a real OOM kill or power cut. The parent resumes from whatever
// file survived and must land bit-identical to an uninterrupted run.
// This is the process-boundary companion to test_io_checkpoint.cpp.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace rumor {
namespace {

namespace fs = std::filesystem;

using rumor::test::temp_path;

sim::AgentParams agent_params() {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon1 = 0.02;
  params.epsilon2 = 0.1;
  params.dt = 0.1;
  return params;
}

// Pin the whole test to one thread so no pool threads exist at fork
// time (fork + live worker threads is undefined-ish); determinism is
// thread-count invariant, so this loses no coverage.
class SingleThreadGuard {
 public:
  SingleThreadGuard() { util::set_num_threads(1); }
  ~SingleThreadGuard() { util::set_num_threads(0); }
};

TEST(IntegrationCheckpoint, SigkilledRunResumesBitIdentically) {
  SingleThreadGuard guard;
  util::Xoshiro256 rng(17);
  const auto g = graph::barabasi_albert(600, 3, rng);
  const std::string path = temp_path("killed.bin");
  fs::remove(path);

  // Reference: 120 uninterrupted steps.
  sim::AgentSimulation reference(g, agent_params(), 23);
  reference.seed_random_infections(6);
  for (int s = 0; s < 120; ++s) reference.step();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: identical run, checkpoint every 10 steps, then die hard
    // right after the step-70 save.
    sim::AgentSimulation simulation(g, agent_params(), 23);
    simulation.seed_random_infections(6);
    for (int s = 0; s < 120; ++s) {
      simulation.step();
      if (simulation.step_count() % 10 == 0) {
        sim::save_agent_checkpoint(simulation, path);
      }
      if (simulation.step_count() == 70) ::raise(SIGKILL);
    }
    ::_exit(0);  // not reached; keeps gtest state out of the child
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_TRUE(fs::exists(path)) << "no checkpoint survived the kill";

  sim::AgentSimulation resumed(g, agent_params(), 23);
  sim::load_agent_checkpoint(resumed, path);
  EXPECT_EQ(resumed.step_count(), 70u);
  while (resumed.step_count() < 120) resumed.step();

  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(resumed.state(static_cast<graph::NodeId>(v)),
              reference.state(static_cast<graph::NodeId>(v)))
        << "node " << v;
  }
  EXPECT_EQ(resumed.time(), reference.time());
  fs::remove(path);
}

TEST(IntegrationCheckpoint, StaleTmpFileFromKilledWriteIsHarmless) {
  // A crash *during* write_file leaves `path + ".tmp"` but the real
  // file is either the previous complete snapshot or absent — the
  // rename is the commit point. Emulate the worst leftover state and
  // check both that the stale tmp is ignored and that the next save
  // replaces it.
  SingleThreadGuard guard;
  util::Xoshiro256 rng(9);
  const auto g = graph::barabasi_albert(200, 3, rng);
  const std::string path = temp_path("stale.bin");

  sim::AgentSimulation simulation(g, agent_params(), 4);
  simulation.seed_random_infections(3);
  for (int s = 0; s < 20; ++s) simulation.step();
  sim::save_agent_checkpoint(simulation, path);

  // Garbage half-written tmp next to a good snapshot.
  std::ofstream(path + ".tmp", std::ios::binary) << "RUMORBIN\x01garbage";

  sim::AgentSimulation resumed(g, agent_params(), 4);
  sim::load_agent_checkpoint(resumed, path);
  EXPECT_EQ(resumed.step_count(), 20u);

  for (int s = 0; s < 5; ++s) resumed.step();
  sim::save_agent_checkpoint(resumed, path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  sim::AgentSimulation reloaded(g, agent_params(), 4);
  sim::load_agent_checkpoint(reloaded, path);
  EXPECT_EQ(reloaded.step_count(), 25u);
  fs::remove(path);
}

}  // namespace
}  // namespace rumor
