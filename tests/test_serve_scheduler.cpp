// Scheduler behavior: dispatch ordering, admission control, the
// documented error codes (queue_full, deadline_exceeded, cancelled,
// bad_request, shutting_down), preemption with bit-identical resume,
// and the drain-then-stop shutdown path. Jobs are real runner jobs on
// a packed test graph — the scheduler has no mock seam, by design: a
// preemption test that doesn't cross a real checkpoint proves nothing.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "graph/generators.hpp"
#include "io/graph_binary.hpp"
#include "io/json.hpp"
#include "serve/scheduler.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace rumor::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class ServeSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = test::temp_path("sched");
    fs::remove_all(root_);
    fs::create_directories(root_);
    util::Xoshiro256 rng(11);
    graph_path_ = (root_ / "graph.bin").string();
    io::save_graph(graph::barabasi_albert(400, 3, rng), graph_path_);
  }
  void TearDown() override { fs::remove_all(root_); }

  Scheduler::Options options(std::size_t workers,
                             std::size_t queue_depth = 64) {
    Scheduler::Options opts;
    opts.workers = workers;
    opts.max_queue_depth = queue_depth;
    opts.cache_capacity = 2;
    opts.job_root = (root_ / "jobs").string();
    opts.drain_timeout = 200ms;
    return opts;
  }

  io::JsonValue spec_with_graph() {
    io::JsonValue spec = io::JsonValue::make_object();
    spec.set("graph", graph_path_);
    return spec;
  }

  /// A job that runs for many seconds but reacts to directives at
  /// step granularity: a sweep over far more seeds than we will wait
  /// for.
  io::JsonValue blocker_spec() {
    io::JsonValue spec = spec_with_graph();
    spec.set("seeds", 1000000);
    spec.set("t_end", 50.0);
    return spec;
  }

  /// A short-but-observable job (tens of milliseconds).
  io::JsonValue quick_spec() {
    io::JsonValue spec = spec_with_graph();
    spec.set("seeds", 40);
    spec.set("t_end", 10.0);
    return spec;
  }

  static std::string state_of(Scheduler& sched, std::uint64_t id) {
    const auto json = sched.job_json(id);
    return json ? json->find("state")->as_string() : "<unknown>";
  }

  static bool poll_until_running(Scheduler& sched, std::uint64_t id,
                                 std::chrono::milliseconds timeout = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (state_of(sched, id) == "running") return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  fs::path root_;
  std::string graph_path_;
};

TEST_F(ServeSchedulerTest, RunsASimulateJobToCompletion) {
  Scheduler sched(options(2));
  io::JsonValue spec = spec_with_graph();
  spec.set("t_end", 5.0);
  spec.set("seed", 3);
  const auto sub = sched.submit(JobType::kSimulate, std::move(spec), 0, 0);
  ASSERT_NE(sub.job, nullptr);
  ASSERT_TRUE(sched.wait(sub.job->id, 30000ms));
  const auto json = sched.job_json(sub.job->id);
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->find("state")->as_string(), "done");
  const io::JsonValue* result = json->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_DOUBLE_EQ(result->number_or("nodes", 0.0), 400.0);
  EXPECT_GT(result->number_or("steps", 0.0), 0.0);
  // Terminal jobs leave no working directory behind.
  EXPECT_FALSE(fs::exists(sub.job->dir));
}

TEST_F(ServeSchedulerTest, DispatchesByPriority) {
  Scheduler sched(options(1));
  const auto blocker =
      sched.submit(JobType::kSweep, blocker_spec(), 0, 0);
  ASSERT_TRUE(poll_until_running(sched, blocker.job->id));

  const auto low = sched.submit(JobType::kSweep, quick_spec(), 1, 0);
  const auto high = sched.submit(JobType::kSweep, quick_spec(), 5, 0);
  const auto mid = sched.submit(JobType::kSweep, quick_spec(), 3, 0);
  ASSERT_TRUE(sched.cancel(blocker.job->id));

  // One worker runs them serially, so completion order is dispatch
  // order. When a higher-priority job finishes, the lower ones must
  // not have finished yet.
  ASSERT_TRUE(sched.wait(high.job->id, 30000ms));
  EXPECT_NE(state_of(sched, low.job->id), "done");
  ASSERT_TRUE(sched.wait(mid.job->id, 30000ms));
  EXPECT_NE(state_of(sched, low.job->id), "done");
  ASSERT_TRUE(sched.wait(low.job->id, 30000ms));
  EXPECT_EQ(state_of(sched, low.job->id), "done");
}

TEST_F(ServeSchedulerTest, RejectsWhenQueueIsFull) {
  Scheduler sched(options(1, /*queue_depth=*/2));
  const auto blocker =
      sched.submit(JobType::kSweep, blocker_spec(), 0, 0);
  ASSERT_TRUE(poll_until_running(sched, blocker.job->id));

  const auto q1 = sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);
  const auto q2 = sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);
  ASSERT_NE(q1.job, nullptr);
  ASSERT_NE(q2.job, nullptr);
  const auto q3 = sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);
  EXPECT_EQ(q3.job, nullptr);
  EXPECT_EQ(q3.error_code, kErrQueueFull);
  sched.cancel(blocker.job->id);
  sched.cancel(q1.job->id);
  sched.cancel(q2.job->id);
}

TEST_F(ServeSchedulerTest, CancelsQueuedAndRunningJobs) {
  Scheduler sched(options(1));
  const auto blocker =
      sched.submit(JobType::kSweep, blocker_spec(), 0, 0);
  ASSERT_TRUE(poll_until_running(sched, blocker.job->id));
  const auto queued =
      sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);

  // Queued jobs terminalize immediately.
  EXPECT_TRUE(sched.cancel(queued.job->id));
  const auto queued_json = sched.job_json(queued.job->id);
  EXPECT_EQ(queued_json->find("state")->as_string(), "cancelled");
  EXPECT_EQ(queued_json->find("error")->find("code")->as_string(),
            kErrCancelled);
  // A second cancel is a no-op on a terminal job.
  EXPECT_FALSE(sched.cancel(queued.job->id));

  // Running jobs stop at the next cooperative poll.
  EXPECT_TRUE(sched.cancel(blocker.job->id));
  ASSERT_TRUE(sched.wait(blocker.job->id, 10000ms));
  EXPECT_EQ(state_of(sched, blocker.job->id), "cancelled");
}

TEST_F(ServeSchedulerTest, ExpiresDeadlineBeforeDispatch) {
  Scheduler sched(options(1));
  // Higher priority so the deadline job cannot preempt it and must
  // sit in the queue past its deadline.
  const auto blocker =
      sched.submit(JobType::kSweep, blocker_spec(), 1, 0);
  ASSERT_TRUE(poll_until_running(sched, blocker.job->id));
  const auto doomed =
      sched.submit(JobType::kSimulate, spec_with_graph(), 0, /*timeout_ms=*/50);
  std::this_thread::sleep_for(150ms);
  sched.cancel(blocker.job->id);
  ASSERT_TRUE(sched.wait(doomed.job->id, 10000ms));
  const auto json = sched.job_json(doomed.job->id);
  EXPECT_EQ(json->find("state")->as_string(), "failed");
  EXPECT_EQ(json->find("error")->find("code")->as_string(),
            kErrDeadlineExceeded);
}

TEST_F(ServeSchedulerTest, ExpiresDeadlineWhileRunning) {
  Scheduler sched(options(1));
  const auto doomed =
      sched.submit(JobType::kSweep, blocker_spec(), 0, /*timeout_ms=*/100);
  ASSERT_TRUE(sched.wait(doomed.job->id, 10000ms));
  const auto json = sched.job_json(doomed.job->id);
  EXPECT_EQ(json->find("state")->as_string(), "failed");
  EXPECT_EQ(json->find("error")->find("code")->as_string(),
            kErrDeadlineExceeded);
}

TEST_F(ServeSchedulerTest, PreemptedPlanResumesBitIdentically) {
  Scheduler sched(options(1));
  io::JsonValue plan_spec = spec_with_graph();
  plan_spec.set("groups", 6);
  plan_spec.set("tf", 8.0);
  plan_spec.set("grid_points", 301);
  plan_spec.set("substeps", 16);
  plan_spec.set("max_iterations", 60);
  io::JsonValue plan_spec_copy = plan_spec;

  // Reference: the same plan, uninterrupted.
  const auto clean =
      sched.submit(JobType::kPlan, std::move(plan_spec_copy), 0, 0);
  ASSERT_TRUE(sched.wait(clean.job->id, 120000ms));
  const auto clean_json = sched.job_json(clean.job->id);
  ASSERT_EQ(clean_json->find("state")->as_string(), "done");
  const io::JsonValue* clean_result = clean_json->find("result");

  // Preempted: once the plan is running, a higher-priority job forces
  // a yield; the solver checkpoints, the intruder runs, the plan
  // resumes from its own checkpoint.
  const auto victim = sched.submit(JobType::kPlan, std::move(plan_spec), 0, 0);
  ASSERT_TRUE(poll_until_running(sched, victim.job->id));
  io::JsonValue intruder_spec = spec_with_graph();
  intruder_spec.set("t_end", 1.0);
  const auto intruder =
      sched.submit(JobType::kSimulate, std::move(intruder_spec), 10, 0);
  ASSERT_TRUE(sched.wait(intruder.job->id, 60000ms));
  ASSERT_TRUE(sched.wait(victim.job->id, 120000ms));

  const auto victim_json = sched.job_json(victim.job->id);
  ASSERT_EQ(victim_json->find("state")->as_string(), "done");
  EXPECT_GE(victim_json->find("preemptions")->as_number(), 1.0);
  const io::JsonValue* victim_result = victim_json->find("result");

  // Bit-identity: the control trajectory CRC, iteration count, and
  // objective all match the uninterrupted run exactly.
  EXPECT_EQ(victim_result->number_or("control_crc", -1.0),
            clean_result->number_or("control_crc", -2.0));
  EXPECT_EQ(victim_result->number_or("iterations", -1.0),
            clean_result->number_or("iterations", -2.0));
  EXPECT_EQ(victim_result->number_or("objective", -1.0),
            clean_result->number_or("objective", -2.0));
}

TEST_F(ServeSchedulerTest, StopDrainsCancelsAndRejects) {
  Scheduler sched(options(1));
  const auto blocker =
      sched.submit(JobType::kSweep, blocker_spec(), 0, 0);
  ASSERT_TRUE(poll_until_running(sched, blocker.job->id));
  const auto q1 = sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);
  const auto q2 = sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);

  sched.stop();  // drain_timeout elapses, then the blocker is cancelled

  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_EQ(sched.queued_count(), 0u);
  EXPECT_EQ(state_of(sched, blocker.job->id), "cancelled");
  for (const auto& queued : {q1, q2}) {
    const auto json = sched.job_json(queued.job->id);
    EXPECT_EQ(json->find("state")->as_string(), "cancelled");
    EXPECT_EQ(json->find("error")->find("code")->as_string(),
              kErrShuttingDown);
  }
  const auto late = sched.submit(JobType::kSimulate, spec_with_graph(), 0, 0);
  EXPECT_EQ(late.job, nullptr);
  EXPECT_EQ(late.error_code, kErrShuttingDown);
  // No job left a working directory behind.
  EXPECT_TRUE(fs::is_empty(root_ / "jobs"));
}

TEST_F(ServeSchedulerTest, BadSpecsFailWithBadRequest) {
  Scheduler sched(options(2));
  io::JsonValue no_graph = io::JsonValue::make_object();
  io::JsonValue missing_file = io::JsonValue::make_object();
  missing_file.set("graph", (root_ / "nope.bin").string());
  io::JsonValue bad_engine = spec_with_graph();
  bad_engine.set("engine", "quantum");
  for (io::JsonValue* spec : {&no_graph, &missing_file, &bad_engine}) {
    const auto sub =
        sched.submit(JobType::kSimulate, std::move(*spec), 0, 0);
    ASSERT_NE(sub.job, nullptr);  // admission is O(1); specs fail later
    ASSERT_TRUE(sched.wait(sub.job->id, 10000ms));
    const auto json = sched.job_json(sub.job->id);
    EXPECT_EQ(json->find("state")->as_string(), "failed");
    EXPECT_EQ(json->find("error")->find("code")->as_string(),
              kErrBadRequest);
  }
}

TEST_F(ServeSchedulerTest, UnknownIdsAreReportedNotFound) {
  Scheduler sched(options(1));
  EXPECT_FALSE(sched.job_json(999).has_value());
  EXPECT_FALSE(sched.cancel(999));
  EXPECT_FALSE(sched.wait(999, 10ms));
}

}  // namespace
}  // namespace rumor::serve
