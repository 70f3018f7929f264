// BENCH-DRIVER — the perf-regression harness.
//
// A plain executable (no google-benchmark dependency) that times the
// hot paths, counts RHS evaluations and heap allocations, and writes
// one machine-readable JSON report. CI runs both suites on every push
// and fails the build on a >25% regression against the committed
// baselines (bench/baseline/BENCH_pr3.json, BENCH_pr4.json).
//
//   bench_driver [--suite control|agents|kernels|graphs|batch|stream]
//                [--out PATH] [--baseline PATH] [--repeat N] [--xl]
//                [--list-suites]
//
// Suite "control" (default; report BENCH_pr5.json):
//   trajectory_interp  cursor-based Trajectory interpolation, ns/query
//   costate_rhs        adjoint RHS (n = 20 groups), ns/eval and
//                      allocations/eval (must be 0 after warm-up)
//   forward_integrate  RK4 forward solve, wall ms + exact RHS-eval count
//   fbsm_small         full FBSM solve (the ≥3× acceptance case; the
//                      same configuration as perf_control's
//                      BM_FullSolveSmall), median wall ms over --repeat
//   pg_small           projected-gradient solve, same problem
//   mpc_small          receding-horizon loop, wall ms
//
// Suite "agents" (report BENCH_pr4.json): the dense vs frontier agent
// engines on a Digg-scale BA graph (71367 × m=12) and a million-node
// BA graph (m=3), identical seeds/params per pair — the engines are
// bit-identical, so each pair times the same trajectory. Reported per
// case: steps_per_sec, edges_per_step (CSR entries touched),
// allocs_per_step (must be 0 warm), prevalence at the end of the
// window, and speedup_vs_dense for the frontier cases. Gates: the
// BA-1M window must stay at ≤1% prevalence, the frontier engine must
// beat dense ≥10× there, and against a baseline the frontier BA-1M
// steps_per_sec may not regress >25%.
//
// Suite "kernels" (report BENCH_pr6.json): the src/kern dispatch-table
// microbench. Every kernel in the table runs once per backend the
// binary carries AND the CPU supports, on L2-resident problem sizes
// (n = 4096 doubles; 65536-node census and frontier sweep draws),
// reporting nominal GB/s, kernel calls per second, and — for the SIMD
// backends — the speedup over the scalar backend on the same data.
// Gates (optimized builds):
// every SIMD kernel must at least match scalar, and under --baseline
// the fused RK4 kernels of the auto-selected backend may not regress
// >25% in evals/sec.
//
// Suite "graphs" (report BENCH_pr8.json): the packed-CSR vs compressed
// GRAPHCSZ format comparison on Digg-scale and BA-1M graphs (--xl adds
// a streamed BA-100M case stepped under an out-of-core resident
// budget). Per scale: bytes/edge for both formats and their ratio,
// shard decode bandwidth (GB/s over validate_full), and frontier
// steps/sec on each representation with identical seeds. Gates: the
// packed and compressed runs must be bit-identical (any build), the
// compressed bytes/edge must stay <=60% of packed (any build), and
// under --baseline the BA-1M compressed steps_per_sec may not regress
// >25% (optimized builds).
//
// Suite "batch" (report BENCH_pr9.json): the lane-per-problem batched
// solver (control/batch_sweep.hpp) against the sequential driver on
// the same eight problems — fbsm_small's configuration (n = 10,
// tf = 20), cost weights varied per lane so the lanes genuinely
// diverge in iteration count. Both sides run on one thread (the eight
// problems fill exactly one SIMD chunk); reported per algorithm:
// sequential and batched solves/sec and the speedup. Gates: per-lane
// results must match the sequential solves (bitwise under the scalar
// backend, tolerance under SIMD — see the batched-kernel determinism
// policy in kern.hpp; any build), the FBSM speedup must be ≥4x
// (optimized builds), and under --baseline the batched FBSM
// solves/sec may not regress >25%. Case batch_fbsm_b7 runs the first
// seven problems as one ragged batch, interleaved with all eight (order
// alternating per rep), both at a fixed FBSM iteration count; the
// median paired wall ratio B=7 / B=8 must stay ≤1.5 (optimized SIMD
// builds).
//
// Suite "stream" (report BENCH_pr10.json): the online streaming
// control loop (src/stream) on a scripted growth+churn+drift scenario.
// The closed-loop case ingests the full event log end to end and
// reports events/sec (best-of-N), the deadline-miss rate, and the
// realized objective; companion cases report p50/p99 wall ms per
// refit and per replan from the engine's diagnostic buffers. Gates:
// the decision CRC must be identical across every timed rep (replay
// determinism, any build), the generous-budget run must have zero
// deadline misses and the one-iteration run must miss yet still emit
// every tick row (budget semantics, any build — the iteration budget
// is deterministic), the closed loop must realize a lower objective
// than the open-loop baseline on the same log (any build), and under
// --baseline the closed-loop events/sec may not regress >25%
// (optimized builds).
//
// Every report embeds the active kernel backend, the CPU's SIMD
// feature set, and the compiler under "build" (schema rumor-bench/3),
// plus the process peak RSS (getrusage ru_maxrss) measured after the
// suite ran, so perf trajectories across machines and build flavors
// stay attributable. Comparing a -march=native build against a
// portable baseline (or vice versa) prints a warning.
//
// Allocation counting comes from the rumor_alloc_count link-in (global
// operator new/delete replacement); RHS evaluations from the steppers'
// own "ode.rhs_evals" registry counter (src/obs). Each report also
// embeds a full metrics-registry snapshot under "metrics", so one
// bench run doubles as an instrumentation fixture.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/common.hpp"
#include "control/batch_sweep.hpp"
#include "control/mpc.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "io/graph_binary.hpp"
#include "io/graph_compressed.hpp"
#include "io/graph_stream.hpp"
#include "kern/kern.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "ode/integrate.hpp"
#include "sim/agent_sim.hpp"
#include "stream/engine.hpp"
#include "stream/scenario.hpp"
#include "util/alloc_count.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace {

using namespace rumor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Exact RHS-eval count from the steppers' shared registry counter.
std::uint64_t rhs_evals_now() {
  return rumor::obs::metrics().counter("ode.rhs_evals").value();
}

struct CaseResult {
  std::string name;
  // Populated fields are emitted; negative values mean "not measured".
  double wall_ms = -1.0;
  double ns_per_eval = -1.0;
  double allocs_per_eval = -1.0;
  std::int64_t rhs_evals = -1;
  std::int64_t iterations = -1;
  // Agent-suite fields.
  double steps_per_sec = -1.0;
  double edges_per_step = -1.0;
  double allocs_per_step = -1.0;
  double prevalence = -1.0;
  double speedup_vs_dense = -1.0;
  // Kernel-suite fields.
  double gbps = -1.0;
  double evals_per_sec = -1.0;
  double speedup_vs_scalar = -1.0;
  // Graph-format suite fields.
  double bytes_per_edge = -1.0;
  double compressed_ratio = -1.0;  ///< compressed bytes / packed bytes
  // Batch-solver suite fields.
  double solves_per_sec = -1.0;
  double speedup_vs_sequential = -1.0;
  double wall_ratio_vs_b8 = -1.0;  ///< ragged batch wall / full batch wall
  // Stream-suite fields.
  double events_per_sec = -1.0;
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  double miss_rate = -1.0;
  double objective = -1.0;
};

/// Peak resident set size of this process in bytes (0 when the
/// platform offers no getrusage). Linux reports ru_maxrss in KiB,
/// macOS in bytes.
std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

control::SweepOptions small_solve_options() {
  // Must stay in lockstep with perf_control's BM_FullSolveSmall: this
  // is the case the ≥3x acceptance and the CI regression gate track.
  control::SweepOptions options;
  options.grid_points = 101;
  options.substeps = 10;
  options.max_iterations = 200;
  options.j_tolerance = 1e-5;
  return options;
}

CaseResult run_trajectory_interp() {
  const auto model = bench::fig4_model(10);
  const auto traj = ode::integrate_rk4(
      model, model.initial_state(0.01), 0.0, 20.0, 0.01);
  const std::size_t queries = 2'000'000;
  const double t0 = traj.front_time();
  const double dt = (traj.back_time() - t0) / static_cast<double>(queries);
  ode::State out(traj.dimension());

  ode::Trajectory::Cursor warm(traj);
  warm.at_into(t0, out);

  const auto allocs_before = util::allocation_count();
  ode::Trajectory::Cursor cursor(traj);
  const auto start = Clock::now();
  double sink = 0.0;
  for (std::size_t q = 0; q < queries; ++q) {
    cursor.at_into(t0 + static_cast<double>(q) * dt, out);
    sink += out[0];
  }
  const double elapsed_ms = ms_since(start);
  const auto allocs = util::allocation_count() - allocs_before;
  if (sink == -1.0) std::printf("impossible\n");  // keep the loop live

  CaseResult r;
  r.name = "trajectory_interp";
  r.ns_per_eval = elapsed_ms * 1e6 / static_cast<double>(queries);
  r.allocs_per_eval =
      static_cast<double>(allocs) / static_cast<double>(queries);
  return r;
}

CaseResult run_costate_rhs() {
  auto model = bench::fig4_model(20);
  const auto cost = bench::fig4_cost();
  const auto schedule = core::make_constant_control(0.1, 0.1);
  core::SirNetworkModel forward(model.profile(), model.params(), schedule);
  const auto traj = ode::integrate_rk4(
      forward, forward.initial_state(0.01), 0.0, 10.0, 0.01);
  control::BackwardCostateSystem adjoint(forward, traj, *schedule, cost,
                                         10.0);
  ode::State w = adjoint.terminal_costate();
  ode::State dwds(w.size());

  // Warm-up: first eval sizes nothing (the system preallocates), but
  // keep the protocol explicit — allocations are counted after it.
  adjoint.rhs(0.0, w, dwds);

  const std::size_t evals = 1'000'000;
  // Sweep s forward (t backward) like a real backward integration so
  // the trajectory cursor actually advances.
  const double ds = 10.0 / static_cast<double>(evals);
  const auto allocs_before = util::allocation_count();
  const auto start = Clock::now();
  for (std::size_t q = 0; q < evals; ++q) {
    adjoint.rhs(static_cast<double>(q) * ds, w, dwds);
  }
  const double elapsed_ms = ms_since(start);
  const auto allocs = util::allocation_count() - allocs_before;

  CaseResult r;
  r.name = "costate_rhs";
  r.ns_per_eval = elapsed_ms * 1e6 / static_cast<double>(evals);
  r.allocs_per_eval =
      static_cast<double>(allocs) / static_cast<double>(evals);
  r.rhs_evals = static_cast<std::int64_t>(evals);
  return r;
}

CaseResult run_forward_integrate() {
  const auto model = bench::fig4_model(60);
  ode::Rk4Stepper stepper;
  ode::FixedStepOptions fixed;
  fixed.dt = 0.01;
  ode::Trajectory traj(model.dimension());
  const auto y0 = model.initial_state(0.01);

  const std::uint64_t evals_before = rhs_evals_now();
  const auto start = Clock::now();
  ode::integrate_fixed_into(model, stepper, y0, 0.0, 20.0, fixed, traj);
  const double elapsed_ms = ms_since(start);

  CaseResult r;
  r.name = "forward_integrate";
  r.wall_ms = elapsed_ms;
  r.rhs_evals = static_cast<std::int64_t>(rhs_evals_now() - evals_before);
  return r;
}

template <typename Solve>
CaseResult run_solver_case(const char* name, std::size_t repeat,
                           Solve&& solve) {
  std::vector<double> samples;
  std::int64_t iterations = -1;
  for (std::size_t rep = 0; rep < repeat; ++rep) {
    const auto start = Clock::now();
    iterations = solve();
    samples.push_back(ms_since(start));
  }
  std::sort(samples.begin(), samples.end());
  CaseResult r;
  r.name = name;
  r.wall_ms = samples[samples.size() / 2];  // median
  r.iterations = iterations;
  return r;
}

/// True when this binary was compiled with -march=native (the
/// RUMOR_NATIVE CMake option) — recorded in the report so baseline
/// comparisons across build flavors are detectable.
constexpr bool native_build() {
#ifdef RUMOR_NATIVE_BUILD
  return true;
#else
  return false;
#endif
}

std::string to_json(const std::vector<CaseResult>& cases, bool optimized) {
  std::ostringstream json;
  json.precision(6);
  json << "{\"schema\":\"rumor-bench/3\",\"build\":{\"optimized\":"
       << (optimized ? "true" : "false")
       << ",\"threads\":" << util::num_threads()
       << ",\"kernel_backend\":\"" << kern::to_string(kern::backend())
       << "\",\"cpu_features\":\"" << kern::cpu_features()
       << "\",\"compiler\":\"" << __VERSION__
       << "\",\"native\":" << (native_build() ? "true" : "false") << "},"
       << "\"peak_rss_bytes\":" << peak_rss_bytes() << ",";
  if (!optimized) {
    json << "\"warning\":\"UNOPTIMIZED BUILD - timings are not "
            "meaningful\",";
  }
  json << "\"cases\":[";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& r = cases[c];
    if (c != 0) json << ",";
    json << "{\"name\":\"" << r.name << "\"";
    if (r.wall_ms >= 0.0) json << ",\"wall_ms\":" << r.wall_ms;
    if (r.ns_per_eval >= 0.0) json << ",\"ns_per_eval\":" << r.ns_per_eval;
    if (r.allocs_per_eval >= 0.0) {
      json << ",\"allocs_per_eval\":" << r.allocs_per_eval;
    }
    if (r.rhs_evals >= 0) json << ",\"rhs_evals\":" << r.rhs_evals;
    if (r.iterations >= 0) json << ",\"iterations\":" << r.iterations;
    if (r.steps_per_sec >= 0.0) {
      json << ",\"steps_per_sec\":" << r.steps_per_sec;
    }
    if (r.edges_per_step >= 0.0) {
      json << ",\"edges_per_step\":" << r.edges_per_step;
    }
    if (r.allocs_per_step >= 0.0) {
      json << ",\"allocs_per_step\":" << r.allocs_per_step;
    }
    if (r.prevalence >= 0.0) json << ",\"prevalence\":" << r.prevalence;
    if (r.speedup_vs_dense >= 0.0) {
      json << ",\"speedup_vs_dense\":" << r.speedup_vs_dense;
    }
    if (r.gbps >= 0.0) json << ",\"gbps\":" << r.gbps;
    if (r.evals_per_sec >= 0.0) {
      json << ",\"evals_per_sec\":" << r.evals_per_sec;
    }
    if (r.speedup_vs_scalar >= 0.0) {
      json << ",\"speedup_vs_scalar\":" << r.speedup_vs_scalar;
    }
    if (r.bytes_per_edge >= 0.0) {
      json << ",\"bytes_per_edge\":" << r.bytes_per_edge;
    }
    if (r.compressed_ratio >= 0.0) {
      json << ",\"compressed_ratio\":" << r.compressed_ratio;
    }
    if (r.solves_per_sec >= 0.0) {
      json << ",\"solves_per_sec\":" << r.solves_per_sec;
    }
    if (r.speedup_vs_sequential >= 0.0) {
      json << ",\"speedup_vs_sequential\":" << r.speedup_vs_sequential;
    }
    if (r.wall_ratio_vs_b8 >= 0.0) {
      json << ",\"wall_ratio_vs_b8\":" << r.wall_ratio_vs_b8;
    }
    if (r.events_per_sec >= 0.0) {
      json << ",\"events_per_sec\":" << r.events_per_sec;
    }
    if (r.p50_ms >= 0.0) json << ",\"p50_ms\":" << r.p50_ms;
    if (r.p99_ms >= 0.0) json << ",\"p99_ms\":" << r.p99_ms;
    if (r.miss_rate >= 0.0) json << ",\"miss_rate\":" << r.miss_rate;
    if (r.objective >= 0.0) json << ",\"objective\":" << r.objective;
    json << "}";
  }
  json << "]";
  // Embed the full registry snapshot: every counter the instrumented
  // engines bumped while the cases ran (rhs evals, sim steps, sweep
  // iterations, io writes, ...), in the same document a --metrics-out
  // run would produce.
  std::string metrics_doc = obs::to_json(obs::metrics().snapshot());
  while (!metrics_doc.empty() && metrics_doc.back() == '\n') {
    metrics_doc.pop_back();
  }
  json << ",\"metrics\":" << metrics_doc << "}\n";
  return json.str();
}

/// Pull `"field":<number>` out of the case object named `name` in a
/// report produced by to_json (compact, known key order). Returns a
/// negative value when absent.
double extract_case_field(const std::string& json, const std::string& name,
                          const std::string& field) {
  const auto at = json.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return -1.0;
  const auto object_end = json.find('}', at);
  const auto key = json.find("\"" + field + "\":", at);
  if (key == std::string::npos || key > object_end) return -1.0;
  return std::strtod(json.c_str() + key + field.size() + 3, nullptr);
}

/// Satellite of the kernel work: comparing a -march=native binary
/// against a portable baseline (or the reverse) mostly measures the
/// flag, not the change — say so instead of letting the gate mislead.
/// rumor-bench/2 baselines carry no "native" field and are treated as
/// portable builds.
void warn_native_mismatch(const std::string& baseline_json) {
  const auto key = baseline_json.find("\"native\":");
  const bool baseline_native =
      key != std::string::npos &&
      baseline_json.compare(key + 9, 4, "true") == 0;
  if (baseline_native != native_build()) {
    std::fprintf(stderr,
                 "bench_driver: WARNING — this binary was built %s "
                 "-march=native but the baseline was built %s it; "
                 "timing deltas reflect build flavor as much as code\n",
                 native_build() ? "with" : "without",
                 baseline_native ? "with" : "without");
  }
}

// ---- kernel microbench suite ---------------------------------------

/// Deterministic inputs shared by every backend so speedup ratios
/// compare the same data. Sizes are L1-resident (8 KB arrays): big
/// enough that lane width matters, small enough that cache bandwidth
/// does not flatten every backend to the same number. Every array is
/// 64-byte aligned — std::vector only guarantees 16, and a misaligned
/// 256/512-bit access that splits a cache line penalizes the wide
/// backends for allocator luck rather than kernel code.
struct KernelData {
  static constexpr std::size_t kN = 1024;       // doubles per array
  static constexpr std::size_t kNodes = 65536;  // census nodes

  double *x1, *x2, *psi, *phic, *lambda, *phi, *phi_over_k;
  double *out_a, *out_b, *acc;
  double *y2, *w2, *ymid2, *y1b2, *out_2n, *scratch;
  double *tgrid, *yvals, *weights;
  std::uint32_t* idx;
  std::uint64_t* words;
  std::uint32_t* counts;        // per-node exposure counts (sweep_draws)
  std::uint64_t* masks;         // two kNodes-bit masks (sweep_draws)
  double e1[3] = {0.05, 0.06, 0.07};
  double e2[3] = {0.10, 0.11, 0.12};
  double theta[3] = {0.21, 0.22, 0.23};

  KernelData() {
    util::Xoshiro256 rng(4242);
    const auto take = [&](std::size_t n) {
      auto& block = pool_.emplace_back(n + 8);
      double* p = reinterpret_cast<double*>(
          (reinterpret_cast<std::uintptr_t>(block.data()) + 63) &
          ~static_cast<std::uintptr_t>(63));
      for (std::size_t i = 0; i < n; ++i) p[i] = 0.05 + 0.9 * rng.uniform();
      return p;
    };
    x1 = take(kN);
    x2 = take(kN);
    psi = take(kN);
    phic = take(kN);
    lambda = take(kN);
    phi = take(kN);
    phi_over_k = take(kN);
    out_a = take(kN);
    out_b = take(kN);
    acc = take(kN);
    y2 = take(2 * kN);
    w2 = take(2 * kN);
    ymid2 = take(2 * kN);
    y1b2 = take(2 * kN);
    out_2n = take(2 * kN);
    yvals = take(kN);
    weights = take(kNodes);
    scratch = take(kern::fused_scratch_doubles(kN));
    tgrid = take(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      tgrid[i] = static_cast<double>(i) * 0.01;
    }
    idx = reinterpret_cast<std::uint32_t*>(take(kN / 2 + 8));
    for (std::size_t i = 0; i < kN; ++i) {
      idx[i] = static_cast<std::uint32_t>(rng() % kNodes);
    }
    words = reinterpret_cast<std::uint64_t*>(take(kNodes / 32 + 8));
    for (std::size_t i = 0; i < kNodes / 32; ++i) {
      // Legal 2-bit compartments only (no 11 fields): clear the odd
      // bits of a random word wherever the even bit is set.
      const std::uint64_t r = rng();
      words[i] = r & ~((r & 0x5555555555555555ULL) << 1);
    }
    counts = reinterpret_cast<std::uint32_t*>(take(kNodes / 2));
    for (std::size_t i = 0; i < kNodes; ++i) {
      counts[i] = rng.bernoulli(0.5) ? 0u : 1u + rng() % 8;
    }
    masks = reinterpret_cast<std::uint64_t*>(take(kNodes / 32));
  }

 private:
  std::vector<std::vector<double>> pool_;
};

volatile double g_kernel_sink = 0.0;

/// Time one kernel: `call` performs a single kernel invocation.
/// Returns the best (min) seconds-per-call over `repeat` rounds of
/// `reps` calls — min-of-N because this box's noise is one-sided.
template <typename Call>
CaseResult run_kernel_case(const std::string& kernel, const char* backend,
                           double bytes_per_call, std::size_t repeat,
                           Call&& call) {
  const int reps = static_cast<int>(
      std::max<double>(50.0, 32.0 * 1024.0 * 1024.0 / bytes_per_call));
  call();  // warm caches and the branch predictor
  double best_ms = 1e100;
  for (std::size_t round = 0; round < repeat; ++round) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) call();
    best_ms = std::min(best_ms, ms_since(start));
  }
  const double sec_per_call = best_ms * 1e-3 / static_cast<double>(reps);
  CaseResult r;
  r.name = "kern_" + kernel + "_" + backend;
  r.gbps = bytes_per_call / sec_per_call * 1e-9;
  r.evals_per_sec = 1.0 / sec_per_call;
  return r;
}

/// All ported kernels once for one backend table.
std::vector<CaseResult> run_kernel_backend(const kern::Ops& ops,
                                           KernelData& d,
                                           std::size_t repeat) {
  const char* b = kern::to_string(ops.backend);
  constexpr double kB = 8.0 * KernelData::kN;  // bytes of one array
  const std::size_t n = KernelData::kN;
  std::vector<CaseResult> cases;
  cases.push_back(run_kernel_case("dot", b, 2 * kB, repeat, [&] {
    g_kernel_sink = ops.dot(d.x1, d.x2, n);
  }));
  cases.push_back(run_kernel_case("sum", b, kB, repeat, [&] {
    g_kernel_sink = ops.sum(d.x1, n);
  }));
  cases.push_back(run_kernel_case("gather_sum", b, 1.5 * kB, repeat, [&] {
    g_kernel_sink = ops.gather_sum(d.weights, d.idx, n);
  }));
  cases.push_back(run_kernel_case("trapezoid", b, 2 * kB, repeat, [&] {
    g_kernel_sink = ops.trapezoid(d.tgrid, d.yvals, n);
  }));
  cases.push_back(run_kernel_case("knot4", b, 4 * kB, repeat, [&] {
    double out[4];
    ops.knot4(d.x1, d.x2, d.psi, d.phic, n, out);
    g_kernel_sink = out[0];
  }));
  cases.push_back(run_kernel_case("sir_rhs", b, 6 * kB, repeat, [&] {
    g_kernel_sink =
        ops.sir_rhs(d.x1, d.x2, d.lambda, d.phi,
                    n, 6.0, 0.05, 0.1, 0.2, d.out_a, d.out_b);
  }));
  cases.push_back(run_kernel_case("costate_rhs", b, 8 * kB, repeat, [&] {
    ops.costate_rhs(d.x1, d.x2, d.psi, d.phic,
                    d.lambda, d.phi_over_k, n, -0.1, -0.2, 0.05,
                    0.1, 0.21, /*diagonal=*/false, d.out_a,
                    d.out_b);
    g_kernel_sink = d.out_a[0];
  }));
  cases.push_back(run_kernel_case("sir_rk4_step", b, 54 * kB, repeat, [&] {
    ops.sir_rk4_step(d.y2, n, 6.0, 0.05, d.e1, d.e2, d.lambda,
                     d.phi, 0.02, d.out_2n, d.scratch);
    g_kernel_sink = d.out_2n[0];
  }));
  cases.push_back(run_kernel_case("costate_rk4_step", b, 62 * kB, repeat, [&] {
    ops.costate_rk4_step(d.w2, n, d.y2, d.ymid2,
                         d.y1b2, d.lambda, d.phi_over_k,
                         d.theta, d.e1, d.e2, 5.0, 10.0, 0.02,
                         /*diagonal=*/false, d.out_2n,
                         d.scratch);
    g_kernel_sink = d.out_2n[0];
  }));
  cases.push_back(run_kernel_case("lerp", b, 3 * kB, repeat, [&] {
    ops.lerp(d.x1, d.x2, 0.37, d.out_a, n);
    g_kernel_sink = d.out_a[0];
  }));
  cases.push_back(run_kernel_case("axpy_out", b, 3 * kB, repeat, [&] {
    ops.axpy_out(d.x1, d.x2, 0.02, d.out_a, n);
    g_kernel_sink = d.out_a[0];
  }));
  cases.push_back(run_kernel_case("combine2", b, 4 * kB, repeat, [&] {
    ops.combine2(d.x1, d.x2, d.psi, 0.01,
                 d.out_a, n);
    g_kernel_sink = d.out_a[0];
  }));
  cases.push_back(run_kernel_case("rk4_combine", b, 6 * kB, repeat, [&] {
    ops.rk4_combine(d.x1, d.x2, d.psi, d.phic,
                    d.lambda, 0.003, d.out_a, n);
    g_kernel_sink = d.out_a[0];
  }));
  cases.push_back(run_kernel_case("accumulate", b, 3 * kB, repeat, [&] {
    ops.accumulate(d.x1, d.acc, n);
    g_kernel_sink = d.acc[0];
  }));
  cases.push_back(run_kernel_case("accumulate_sq", b, 3 * kB, repeat, [&] {
    ops.accumulate_sq(d.x1, d.acc, n);
    g_kernel_sink = d.acc[0];
  }));
  cases.push_back(run_kernel_case(
      "census2", b, static_cast<double>(KernelData::kNodes) / 4.0, repeat,
      [&] {
        std::uint64_t out[2];
        ops.census2(d.words, KernelData::kNodes, out);
        g_kernel_sink = static_cast<double>(out[0]);
      }));
  // The frontier engine's full-sweep draws at the spread workload's
  // per-step immunization/blocking probabilities (ε1 = 0.02, ε2 = 0.05,
  // dt = 0.1): packed states and counts in, two bit masks out.
  const std::uint64_t t_immunize =
      util::bernoulli_threshold(1.0 - std::exp(-0.02 * 0.1));
  const std::uint64_t t_block =
      util::bernoulli_threshold(1.0 - std::exp(-0.05 * 0.1));
  cases.push_back(run_kernel_case(
      "sweep_draws", b, static_cast<double>(KernelData::kNodes) * 4.5,
      repeat, [&] {
        std::uint64_t* recover = d.masks;
        std::uint64_t* exposed = d.masks + KernelData::kNodes / 64;
        ops.sweep_draws(d.words, d.counts, 0, KernelData::kNodes, 0x5EED,
                        t_immunize, t_block, recover, exposed);
        g_kernel_sink = static_cast<double>(recover[0] ^ exposed[0]);
      }));
  return cases;
}

int run_kernels_suite(const std::string& out_path,
                      const std::string& baseline_path, bool optimized,
                      std::size_t repeat) {
  KernelData data;
  std::vector<CaseResult> cases = run_kernel_backend(
      kern::ops(kern::Backend::kScalar), data, repeat);
  const std::size_t per_backend = cases.size();
  for (kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    auto simd = run_kernel_backend(kern::ops(b), data, repeat);
    for (std::size_t k = 0; k < simd.size(); ++k) {
      simd[k].speedup_vs_scalar =
          simd[k].evals_per_sec / cases[k].evals_per_sec;
    }
    cases.insert(cases.end(), simd.begin(), simd.end());
  }

  const std::string report = to_json(cases, optimized);
  std::fputs(report.c_str(), stdout);
  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    file << report;
  }
  if (!optimized) {
    std::fprintf(stderr,
                 "bench_driver: kernel gates skipped (unoptimized build)\n");
    return 0;
  }

  // Acceptance gate: a SIMD backend that loses to scalar on a ported
  // kernel at these sizes means the port (or its dispatch) is broken.
  int failures = 0;
  for (std::size_t c = per_backend; c < cases.size(); ++c) {
    if (cases[c].speedup_vs_scalar < 1.0) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — %s is %.2fx scalar (SIMD must "
                   "not lose to the scalar backend)\n",
                   cases[c].name.c_str(), cases[c].speedup_vs_scalar);
      ++failures;
    }
  }
  if (failures != 0) return 1;

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string baseline = buffer.str();
    warn_native_mismatch(baseline);
    // Gate the tentpole kernels of the auto-selected backend: the
    // fused RK4 steps are what the optimal-control wall times ride on.
    const std::string backend = kern::to_string(kern::backend());
    for (const char* kernel : {"sir_rk4_step", "costate_rk4_step"}) {
      const std::string name = std::string("kern_") + kernel + "_" + backend;
      const double base = extract_case_field(baseline, name, "evals_per_sec");
      const double now = extract_case_field(report, name, "evals_per_sec");
      if (base <= 0.0 || now <= 0.0) {
        std::fprintf(stderr,
                     "bench_driver: baseline compare skipped (%s missing)\n",
                     name.c_str());
        continue;
      }
      const double ratio = now / base;
      std::printf("%s: %.3g evals/s vs baseline %.3g (%.2fx)\n", name.c_str(),
                  now, base, ratio);
      if (ratio < 0.75) {
        std::fprintf(stderr,
                     "bench_driver: FAIL — %s regressed %.0f%% below the "
                     "committed baseline (limit 25%%)\n",
                     name.c_str(), (1.0 - ratio) * 100.0);
        return 1;
      }
    }
  }
  return 0;
}

// ---- agent-simulation suite ----------------------------------------

/// Time `measured` warm steps of one engine on `g`. Both engines of a
/// pair run the same seed and params, and the engines are bit-identical
/// by contract, so the pair times the exact same trajectory.
CaseResult run_agent_case(const char* name, const graph::Graph& g,
                          sim::AgentEngine engine, std::size_t seeds,
                          int warm, int measured) {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(0.1);  // slow spread: the
  params.omega = core::Infectivity::saturating(0.5, 0.5);  // low-
  params.epsilon2 = 0.1;  // prevalence regime the frontier targets
  params.dt = 0.1;
  params.engine = engine;
  sim::AgentSimulation simulation(g, params, /*seed=*/12345);
  simulation.seed_random_infections(seeds);
  for (int s = 0; s < warm; ++s) simulation.step();

  const auto edges_before = simulation.edges_scanned();
  const auto allocs_before = util::allocation_count();
  const auto start = Clock::now();
  for (int s = 0; s < measured; ++s) simulation.step();
  const double elapsed_ms = ms_since(start);
  const auto allocs = util::allocation_count() - allocs_before;
  const auto edges = simulation.edges_scanned() - edges_before;

  CaseResult r;
  r.name = name;
  r.wall_ms = elapsed_ms;
  r.steps_per_sec =
      static_cast<double>(measured) / (elapsed_ms * 1e-3);
  r.edges_per_step =
      static_cast<double>(edges) / static_cast<double>(measured);
  r.allocs_per_step =
      static_cast<double>(allocs) / static_cast<double>(measured);
  r.prevalence = static_cast<double>(simulation.census().infected) /
                 static_cast<double>(g.num_nodes());
  return r;
}

int run_agents_suite(const std::string& out_path,
                     const std::string& baseline_path, bool optimized) {
  std::vector<CaseResult> cases;

  {
    // Digg-scale: the paper's dataset has ~71K users; m = 12 gives a
    // comparable edge count.
    util::Xoshiro256 rng(101);
    const auto digg = graph::barabasi_albert(71367, 12, rng);
    cases.push_back(run_agent_case("agents_dense_digg", digg,
                                   sim::AgentEngine::kDense,
                                   /*seeds=*/100, /*warm=*/2,
                                   /*measured=*/10));
    cases.push_back(run_agent_case("agents_frontier_digg", digg,
                                   sim::AgentEngine::kFrontier,
                                   /*seeds=*/100, /*warm=*/2,
                                   /*measured=*/100));
    cases.back().speedup_vs_dense =
        cases.back().steps_per_sec / cases[cases.size() - 2].steps_per_sec;
  }
  {
    util::Xoshiro256 rng(202);
    const auto ba1m = graph::barabasi_albert(1'000'000, 3, rng);
    cases.push_back(run_agent_case("agents_dense_ba1m", ba1m,
                                   sim::AgentEngine::kDense,
                                   /*seeds=*/300, /*warm=*/1,
                                   /*measured=*/5));
    cases.push_back(run_agent_case("agents_frontier_ba1m", ba1m,
                                   sim::AgentEngine::kFrontier,
                                   /*seeds=*/300, /*warm=*/1,
                                   /*measured=*/100));
    cases.back().speedup_vs_dense =
        cases.back().steps_per_sec / cases[cases.size() - 2].steps_per_sec;
  }

  const std::string report = to_json(cases, optimized);
  std::fputs(report.c_str(), stdout);
  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    file << report;
  }

  for (const auto& r : cases) {
    if (r.allocs_per_step > 0.0) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — %s performs %.6f heap "
                   "allocations per warm step (expected 0)\n",
                   r.name.c_str(), r.allocs_per_step);
      return 1;
    }
  }
  // The trajectory is deterministic, so the prevalence gate holds on
  // any machine: the BA-1M window must stay in the sparse regime the
  // ≥10x claim is made for.
  const auto& frontier_1m = cases.back();
  if (frontier_1m.prevalence > 0.01) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — BA-1M window left the <=1%% "
                 "prevalence regime (%.4f)\n",
                 frontier_1m.prevalence);
    return 1;
  }
  if (!optimized) {
    std::fprintf(stderr,
                 "bench_driver: speedup/baseline gates skipped "
                 "(unoptimized build)\n");
    return 0;
  }
  std::printf("agents_frontier_ba1m: %.0f steps/s, %.1fx vs dense\n",
              frontier_1m.steps_per_sec, frontier_1m.speedup_vs_dense);
  if (frontier_1m.speedup_vs_dense < 10.0) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — frontier engine is only %.1fx "
                 "dense on BA-1M (acceptance floor 10x)\n",
                 frontier_1m.speedup_vs_dense);
    return 1;
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    warn_native_mismatch(buffer.str());
    const double base = extract_case_field(buffer.str(),
                                           "agents_frontier_ba1m",
                                           "steps_per_sec");
    if (base <= 0.0) {
      std::fprintf(stderr,
                   "bench_driver: baseline compare skipped "
                   "(agents_frontier_ba1m steps_per_sec missing)\n");
      return 0;
    }
    const double ratio = frontier_1m.steps_per_sec / base;
    std::printf(
        "agents_frontier_ba1m: %.0f steps/s vs baseline %.0f (%.2fx)\n",
        frontier_1m.steps_per_sec, base, ratio);
    if (ratio < 0.75) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — agents_frontier_ba1m regressed "
                   "%.0f%% below the committed baseline (limit 25%%)\n",
                   (1.0 - ratio) * 100.0);
      return 1;
    }
  }
  return 0;
}

// ---- graph-format suite ---------------------------------------------

/// Shared agent parameters for the packed-vs-compressed pairs: the
/// same sparse regime the agents suite uses, so steps/sec numbers are
/// comparable across suites.
sim::AgentParams graphs_params() {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(0.1);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon2 = 0.1;
  params.dt = 0.1;
  params.engine = sim::AgentEngine::kFrontier;
  return params;
}

/// Fingerprint of a finished run — what the bit-identity gate compares
/// between the packed and compressed steppings of the same trajectory.
struct RunDigest {
  sim::Census census;
  std::uint64_t ever_infected = 0;
  std::uint64_t edges_scanned = 0;
};

CaseResult time_graph_steps(const std::string& name,
                            sim::AgentSimulation& simulation,
                            std::size_t nodes, std::size_t seeds, int warm,
                            int measured, RunDigest* digest) {
  simulation.seed_random_infections(seeds);
  for (int s = 0; s < warm; ++s) simulation.step();
  const auto edges_before = simulation.edges_scanned();
  const auto allocs_before = util::allocation_count();
  const auto start = Clock::now();
  for (int s = 0; s < measured; ++s) simulation.step();
  const double elapsed_ms = ms_since(start);
  const auto allocs = util::allocation_count() - allocs_before;
  const auto edges = simulation.edges_scanned() - edges_before;

  CaseResult r;
  r.name = name;
  r.wall_ms = elapsed_ms;
  r.steps_per_sec = static_cast<double>(measured) / (elapsed_ms * 1e-3);
  r.edges_per_step =
      static_cast<double>(edges) / static_cast<double>(measured);
  r.allocs_per_step =
      static_cast<double>(allocs) / static_cast<double>(measured);
  r.prevalence = static_cast<double>(simulation.census().infected) /
                 static_cast<double>(nodes);
  if (digest != nullptr) {
    digest->census = simulation.census();
    digest->ever_infected = simulation.ever_infected();
    digest->edges_scanned = simulation.edges_scanned();
  }
  return r;
}

bool digests_match(const char* tag, const RunDigest& packed,
                   const RunDigest& compressed) {
  if (packed.census.susceptible == compressed.census.susceptible &&
      packed.census.infected == compressed.census.infected &&
      packed.census.recovered == compressed.census.recovered &&
      packed.ever_infected == compressed.ever_infected &&
      packed.edges_scanned == compressed.edges_scanned) {
    return true;
  }
  std::fprintf(stderr,
               "bench_driver: FAIL — %s packed and compressed runs "
               "diverged (infected %zu vs %zu, ever %llu vs %llu)\n",
               tag, packed.census.infected, compressed.census.infected,
               static_cast<unsigned long long>(packed.ever_infected),
               static_cast<unsigned long long>(compressed.ever_infected));
  return false;
}

/// Pack + compress one canonical graph, report bytes/edge for both
/// formats, decode bandwidth, and steps/sec for the frontier engine on
/// each representation (identical seeds => identical trajectories, and
/// the digests must agree bit for bit). Returns false on divergence.
bool run_graphs_scale(std::vector<CaseResult>& cases, const char* tag,
                      const graph::Graph& canonical, std::size_t seeds,
                      int warm, int measured,
                      std::uint64_t resident_budget = 0) {
  namespace fs = std::filesystem;
  const std::string base =
      (fs::temp_directory_path() / (std::string("bench_graphs_") + tag))
          .string();
  const std::string packed_path = base + ".csr";
  const std::string zpath = base + ".zg";
  const double edges = static_cast<double>(canonical.num_edges());

  io::save_graph(canonical, packed_path);
  CaseResult pack;
  pack.name = std::string("graphs_pack_") + tag;
  pack.bytes_per_edge =
      static_cast<double>(fs::file_size(packed_path)) / edges;
  cases.push_back(pack);

  {
    const auto start = Clock::now();
    io::save_graph_compressed(canonical, zpath);
    CaseResult compress;
    compress.name = std::string("graphs_compress_") + tag;
    compress.wall_ms = ms_since(start);
    compress.bytes_per_edge =
        static_cast<double>(fs::file_size(zpath)) / edges;
    compress.compressed_ratio = compress.bytes_per_edge / pack.bytes_per_edge;
    cases.push_back(compress);
  }

  const auto zg = io::load_compressed_graph(zpath, /*deep_validate=*/false);
  {
    // validate_full decodes every neighbor list of every shard — the
    // decode-bandwidth number is blob bytes over that sweep.
    const auto start = Clock::now();
    const std::uint64_t blob_bytes = zg->validate_full();
    const double elapsed_ms = ms_since(start);
    CaseResult decode;
    decode.name = std::string("graphs_decode_") + tag;
    decode.wall_ms = elapsed_ms;
    decode.gbps = static_cast<double>(blob_bytes) / (elapsed_ms * 1e6);
    cases.push_back(decode);
  }

  RunDigest packed_digest, compressed_digest;
  {
    sim::AgentSimulation simulation(canonical, graphs_params(), 12345);
    cases.push_back(time_graph_steps(
        std::string("graphs_step_packed_") + tag, simulation,
        canonical.num_nodes(), seeds, warm, measured, &packed_digest));
  }
  {
    if (resident_budget > 0) zg->set_resident_budget(resident_budget);
    sim::AgentSimulation simulation(*zg, graphs_params(), 12345);
    cases.push_back(time_graph_steps(
        std::string("graphs_step_compressed_") + tag, simulation,
        canonical.num_nodes(), seeds, warm, measured, &compressed_digest));
    cases.back().speedup_vs_dense = -1.0;
    if (resident_budget > 0) {
      std::fprintf(stderr,
                   "bench_driver: %s out-of-core budget %.0f MB dropped "
                   "%llu shard mappings during the run\n",
                   tag, static_cast<double>(resident_budget) / 1e6,
                   static_cast<unsigned long long>(zg->shards_dropped()));
    }
  }

  fs::remove(packed_path);
  fs::remove(zpath);
  return digests_match(tag, packed_digest, compressed_digest);
}

int run_graphs_suite(const std::string& out_path,
                     const std::string& baseline_path, bool optimized,
                     bool xl) {
  std::vector<CaseResult> cases;
  bool identical = true;

  {
    // Digg-scale: same sizing as the agents suite, canonicalized into
    // the degree-sorted order the compressed format is built around.
    util::Xoshiro256 rng(101);
    const auto g = graph::barabasi_albert(71367, 12, rng);
    const auto canonical =
        graph::apply_node_order(g, graph::degree_sorted_order(g));
    identical &= run_graphs_scale(cases, "digg", canonical, /*seeds=*/100,
                                  /*warm=*/2, /*measured=*/50);
  }
  {
    util::Xoshiro256 rng(202);
    const auto g = graph::barabasi_albert(1'000'000, 3, rng);
    const auto canonical =
        graph::apply_node_order(g, graph::degree_sorted_order(g));
    identical &= run_graphs_scale(cases, "ba1m", canonical, /*seeds=*/300,
                                  /*warm=*/1, /*measured=*/50);
  }
  if (xl) {
    // BA-100M: Facebook-density (m = 24, mean degree 48) with n chosen
    // so m*n lands just past 10^8 edges. Density matters to the ratio
    // gate: at m = 3 and 33M nodes the mean sorted-neighbor gap is
    // ~11M ids (~24 bits), and even the Rice codec cannot beat 60% of
    // packed when packed itself is only 12 B/edge of pure targets.
    // Denser graphs shrink the gaps and amortize the per-node prefix.
    // The graph is born compressed on disk (streaming generator),
    // decompressed once for the packed comparison, and the compressed
    // stepping runs under a resident budget to exercise the
    // out-of-core path; 64 MiB shards give the LRU sweep enough
    // granularity to matter.
    namespace fs = std::filesystem;
    const std::string zpath =
        (fs::temp_directory_path() / "bench_graphs_ba100m_gen.zg").string();
    io::StreamBaOptions options;
    options.num_nodes = 4'175'000;
    options.edges_per_node = 24;
    options.seed = 404;
    options.target_shard_bytes = 64ull << 20;
    const auto start = Clock::now();
    const io::StreamBaResult gen = io::generate_ba_compressed(zpath, options);
    CaseResult gen_case;
    gen_case.name = "graphs_gen_ba100m";
    gen_case.wall_ms = ms_since(start);
    gen_case.bytes_per_edge = static_cast<double>(gen.file_bytes) /
                              static_cast<double>(gen.num_edges);
    cases.push_back(gen_case);
    std::fprintf(stderr,
                 "bench_driver: generated BA-100M (%llu edges, %zu "
                 "shards) in %.1f s\n",
                 static_cast<unsigned long long>(gen.num_edges),
                 static_cast<std::size_t>(gen.shard_count),
                 gen_case.wall_ms * 1e-3);

    const auto zg = io::load_compressed_graph(zpath, /*deep_validate=*/false);
    const graph::Graph unpacked = zg->decompress();
    identical &= run_graphs_scale(cases, "ba100m", unpacked, /*seeds=*/1000,
                                  /*warm=*/1, /*measured=*/10,
                                  /*resident_budget=*/zg->total_bytes() / 2);
    fs::remove(zpath);
  }

  const std::string report = to_json(cases, optimized);
  std::fputs(report.c_str(), stdout);
  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    file << report;
  }

  if (!identical) return 1;  // bit-identity is a hard gate in any build

  // Compression is a property of the format, not the optimizer: the
  // <=60% bytes/edge acceptance gate holds in any build flavor.
  for (const auto& r : cases) {
    if (r.compressed_ratio >= 0.0 && r.compressed_ratio > 0.60) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — %s compressed to %.0f%% of "
                   "packed bytes/edge (acceptance ceiling 60%%)\n",
                   r.name.c_str(), r.compressed_ratio * 100.0);
      return 1;
    }
  }
  if (!optimized) {
    std::fprintf(stderr,
                 "bench_driver: steps/sec baseline gate skipped "
                 "(unoptimized build)\n");
    return 0;
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    warn_native_mismatch(buffer.str());
    const double base = extract_case_field(
        buffer.str(), "graphs_step_compressed_ba1m", "steps_per_sec");
    if (base <= 0.0) {
      std::fprintf(stderr,
                   "bench_driver: baseline compare skipped "
                   "(graphs_step_compressed_ba1m steps_per_sec missing)\n");
      return 0;
    }
    double current = 0.0;
    for (const auto& r : cases) {
      if (r.name == "graphs_step_compressed_ba1m") current = r.steps_per_sec;
    }
    const double ratio = current / base;
    std::printf(
        "graphs_step_compressed_ba1m: %.0f steps/s vs baseline %.0f "
        "(%.2fx)\n",
        current, base, ratio);
    if (ratio < 0.75) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — graphs_step_compressed_ba1m "
                   "regressed %.0f%% below the committed baseline "
                   "(limit 25%%)\n",
                   (1.0 - ratio) * 100.0);
      return 1;
    }
  }
  return 0;
}

// ---- batched-solver suite -------------------------------------------

/// fbsm_small's eight problems with per-lane cost weights: the lanes
/// converge after different iteration counts, so the batch exercises
/// the active-mask retirement path rather than eight clones.
std::vector<control::BatchProblem> batch_problems(
    const core::SirNetworkModel& model, const ode::State& y0) {
  constexpr std::size_t kProblems = 8;
  std::vector<control::BatchProblem> problems(kProblems);
  for (std::size_t p = 0; p < kProblems; ++p) {
    problems[p].params = model.params();
    problems[p].cost = bench::fig4_cost();
    problems[p].cost.c2 *= 1.0 + 0.1 * static_cast<double>(p);
    problems[p].y0 = y0;
  }
  return problems;
}

/// Bitwise under the scalar backend (the documented per-lane
/// equivalence), tolerance under SIMD (sequential reductions
/// reassociate where the batched ones do not — kern.hpp).
bool batch_lane_matches(const control::SweepResult& sequential,
                        const control::SweepResult& batched,
                        const char* algorithm, std::size_t lane) {
  const bool scalar = kern::backend() == kern::Backend::kScalar;
  const auto controls_match = [&](const std::vector<double>& a,
                                  const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    if (scalar) {
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    }
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (std::abs(a[k] - b[k]) > 1e-6) return false;
    }
    return true;
  };
  const double total_a = sequential.cost.total();
  const double total_b = batched.cost.total();
  const bool cost_match =
      scalar ? std::memcmp(&total_a, &total_b, sizeof(double)) == 0
             : std::abs(total_a - total_b) <=
                   1e-6 * std::max(std::abs(total_a), 1.0);
  if (controls_match(sequential.epsilon1, batched.epsilon1) &&
      controls_match(sequential.epsilon2, batched.epsilon2) && cost_match &&
      (!scalar || sequential.iterations == batched.iterations)) {
    return true;
  }
  std::fprintf(stderr,
               "bench_driver: FAIL — %s lane %zu diverged from its "
               "sequential solve (J %.17g vs %.17g, iterations %zu vs "
               "%zu, %s backend)\n",
               algorithm, lane, total_a, total_b, sequential.iterations,
               batched.iterations, kern::to_string(kern::backend()));
  return false;
}

int run_batch_suite(const std::string& out_path,
                    const std::string& baseline_path, bool optimized,
                    std::size_t repeat) {
  const auto model = bench::fig4_model(10);
  const double tf = 20.0;
  const auto y0 = model.initial_state(0.01);
  const auto problems = batch_problems(model, y0);

  std::vector<CaseResult> cases;
  bool equivalent = true;
  double fbsm_speedup = 0.0;

  for (const auto algorithm : {control::SweepAlgorithm::kForwardBackward,
                               control::SweepAlgorithm::kProjectedGradient}) {
    const bool fbsm =
        algorithm == control::SweepAlgorithm::kForwardBackward;
    auto options = small_solve_options();
    options.algorithm = algorithm;

    // Sequential reference: the same problems one after another on
    // this thread — per-solve SIMD still applies, only the lane-level
    // batching is absent. One untimed pass of each side first (warm
    // allocators, not cold starts), then the timed reps INTERLEAVE the
    // two sides so a noisy-neighbor burst hits both: the speedup gate
    // uses the median of per-rep ratios, which pairing makes robust,
    // while the reported wall/solves-per-sec numbers are best-of-N
    // (the kernel suite's policy: this box's noise is one-sided).
    std::vector<control::SweepResult> sequential(problems.size());
    sequential[0] =
        control::solve_optimal_control(model, y0, tf, problems[0].cost,
                                       options);
    control::solve_optimal_control_batch(model.profile(), problems, tf,
                                         options, /*lanes=*/8);
    std::vector<control::BatchSolveReport> batched;
    std::vector<double> seq_samples, batch_samples, ratios;
    const std::size_t reps = std::max<std::size_t>(repeat, 5);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      auto start = Clock::now();
      for (std::size_t p = 0; p < problems.size(); ++p) {
        sequential[p] = control::solve_optimal_control(
            model, y0, tf, problems[p].cost, options);
      }
      seq_samples.push_back(ms_since(start));

      // Eight problems fill exactly one SIMD chunk, so the parallel
      // chunk loop degenerates to this thread too.
      start = Clock::now();
      batched = control::solve_optimal_control_batch(
          model.profile(), problems, tf, options, /*lanes=*/8);
      batch_samples.push_back(ms_since(start));
      ratios.push_back(seq_samples.back() / batch_samples.back());
    }
    const double seq_ms =
        *std::min_element(seq_samples.begin(), seq_samples.end());
    const double batch_ms =
        *std::min_element(batch_samples.begin(), batch_samples.end());
    std::sort(ratios.begin(), ratios.end());
    const double speedup = ratios[ratios.size() / 2];

    const double solves = static_cast<double>(problems.size());
    CaseResult seq_case;
    seq_case.name = fbsm ? "batch_seq_fbsm" : "batch_seq_pg";
    seq_case.wall_ms = seq_ms;
    seq_case.solves_per_sec = solves / (seq_ms * 1e-3);
    cases.push_back(seq_case);

    CaseResult batch_case;
    batch_case.name = fbsm ? "batch_fbsm" : "batch_pg";
    batch_case.wall_ms = batch_ms;
    batch_case.solves_per_sec = solves / (batch_ms * 1e-3);
    batch_case.speedup_vs_sequential = speedup;
    cases.push_back(batch_case);
    if (fbsm) fbsm_speedup = speedup;

    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (batched[p].failed) {
        std::fprintf(stderr, "bench_driver: FAIL — %s lane %zu failed: %s\n",
                     fbsm ? "FBSM" : "PG", p, batched[p].error.c_str());
        equivalent = false;
        continue;
      }
      equivalent &= batch_lane_matches(sequential[p], batched[p].result,
                                       fbsm ? "FBSM" : "PG", p);
    }
  }

  // Ragged width: the first 7 problems against all 8, FBSM with both
  // tolerances 0 and a fixed iteration cap, so the two widths run the
  // same number of lockstep iterations and the wall ratio is the price
  // of a 7-lane batch relative to a full one. Interleaved reps, median
  // of the paired ratios, as for the speedup above; the reps alternate
  // which width runs first so an order effect cancels, and there are at
  // least nine (each solve takes tens of ms).
  double ragged_ratio = 0.0;
  {
    constexpr std::size_t kRaggedLanes = 7;
    auto options = small_solve_options();
    options.tolerance = 0.0;
    options.j_tolerance = 0.0;
    options.max_iterations = 30;
    const std::span<const control::BatchProblem> full(problems);
    const auto ragged = full.first(kRaggedLanes);
    control::solve_optimal_control_batch(model.profile(), ragged, tf,
                                         options, /*lanes=*/8);
    std::vector<double> ragged_samples, ratios;
    std::size_t iterations = 0;
    const std::size_t reps = std::max<std::size_t>(repeat, 9);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      double ms[2] = {0.0, 0.0};  // [full, ragged]
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t ragged_run = (rep + k) % 2;
        const auto start = Clock::now();
        const auto reports = control::solve_optimal_control_batch(
            model.profile(), ragged_run ? ragged : full, tf, options,
            /*lanes=*/8);
        ms[ragged_run] = ms_since(start);
        if (ragged_run) iterations = reports[0].result.iterations;
      }
      ragged_samples.push_back(ms[1]);
      ratios.push_back(ms[1] / ms[0]);
    }
    std::sort(ratios.begin(), ratios.end());
    ragged_ratio = ratios[ratios.size() / 2];
    CaseResult ragged_case;
    ragged_case.name = "batch_fbsm_b7";
    ragged_case.wall_ms =
        *std::min_element(ragged_samples.begin(), ragged_samples.end());
    ragged_case.iterations = static_cast<std::int64_t>(iterations);
    ragged_case.solves_per_sec =
        static_cast<double>(kRaggedLanes) / (ragged_case.wall_ms * 1e-3);
    ragged_case.wall_ratio_vs_b8 = ragged_ratio;
    cases.push_back(ragged_case);
  }

  const std::string report = to_json(cases, optimized);
  std::fputs(report.c_str(), stdout);
  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    file << report;
  }

  if (!equivalent) return 1;  // correctness gates hold in any build
  if (!optimized) {
    std::fprintf(stderr,
                 "bench_driver: batch speedup, ragged-width and baseline "
                 "gates skipped (unoptimized build)\n");
    return 0;
  }
  if (kern::backend() == kern::Backend::kScalar) {
    // The scalar leg exists for the bitwise-equivalence check above;
    // cross-lane vectorization is what the 4x floor measures.
    std::fprintf(stderr,
                 "bench_driver: batch speedup, ragged-width and baseline "
                 "gates skipped (scalar backend)\n");
    return 0;
  }

  std::printf("batch_fbsm: %.2fx sequential (acceptance floor 4x)\n",
              fbsm_speedup);
  if (fbsm_speedup < 4.0) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — batched FBSM is only %.2fx the "
                 "sequential driver at B=8 (acceptance floor 4x)\n",
                 fbsm_speedup);
    return 1;
  }
  // A ragged batch runs its tail lanes in masked vector code; a 7-lane
  // batch that costs much more than the 8-lane one is on a scalar path.
  std::printf("batch_fbsm_b7: %.2fx the B=8 wall (ceiling 1.5x)\n",
              ragged_ratio);
  if (ragged_ratio > 1.5) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — a 7-lane FBSM batch costs %.2fx the "
                 "8-lane batch at equal iterations (ceiling 1.5x)\n",
                 ragged_ratio);
    return 1;
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string baseline = buffer.str();
    warn_native_mismatch(baseline);
    const double base =
        extract_case_field(baseline, "batch_fbsm", "solves_per_sec");
    double current = 0.0;
    for (const auto& r : cases) {
      if (r.name == "batch_fbsm") current = r.solves_per_sec;
    }
    if (base <= 0.0) {
      std::fprintf(stderr,
                   "bench_driver: baseline compare skipped (batch_fbsm "
                   "solves_per_sec missing)\n");
      return 0;
    }
    const double ratio = current / base;
    std::printf("batch_fbsm: %.1f solves/s vs baseline %.1f (%.2fx)\n",
                current, base, ratio);
    if (ratio < 0.75) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — batch_fbsm regressed %.0f%% "
                   "below the committed baseline (limit 25%%)\n",
                   (1.0 - ratio) * 100.0);
      return 1;
    }
  }
  return 0;
}

// ---- streaming control-loop suite -----------------------------------

/// Linear-interpolated percentile of a sample buffer (p in [0, 1]).
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return -1.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

/// The scripted bench scenario: growth + churn throughout, a rumor
/// seeded early, and the true λ doubling after the open-loop plan is
/// locked in — the same shape the closed-vs-open integration test
/// pins, scaled up so the ingest timing means something.
stream::ScenarioSpec stream_scenario() {
  stream::ScenarioSpec spec;
  spec.num_nodes = 2000;
  spec.initial_nodes = 500;
  spec.ticks = 120;
  spec.grow_per_tick = 4;
  spec.churn_per_tick = 2;
  spec.seed_tick = 10;
  spec.seed_count = 10;
  spec.drift_tick = 40;
  spec.drift_lambda_scale = 2.0;
  spec.seed = 29;
  return spec;
}

stream::StreamConfig stream_config(std::size_t nodes) {
  stream::StreamConfig config;
  config.num_nodes = nodes;
  config.planner.budget_iterations = 60;
  config.planner.cost.terminal_weight = 50.0;
  return config;
}

CaseResult summarize_stream_run(const char* name,
                                const stream::StreamEngine& engine,
                                double wall_ms, std::size_t events) {
  CaseResult r;
  r.name = name;
  if (wall_ms >= 0.0) {
    r.wall_ms = wall_ms;
    r.events_per_sec = static_cast<double>(events) / (wall_ms * 1e-3);
  }
  r.iterations = static_cast<std::int64_t>(engine.plans());
  const double attempts =
      static_cast<double>(engine.plans() + engine.deadline_misses());
  r.miss_rate = attempts > 0.0
                    ? static_cast<double>(engine.deadline_misses()) / attempts
                    : 0.0;
  r.objective = engine.realized_objective();
  return r;
}

int run_stream_suite(const std::string& out_path,
                     const std::string& baseline_path, bool optimized,
                     std::size_t repeat) {
  const stream::ScenarioSpec spec = stream_scenario();
  const std::vector<stream::Event> events = stream::make_scenario(spec);
  std::vector<CaseResult> cases;

  // Closed loop, timed: ingest the full log end to end. Best-of-N for
  // the throughput number (this box's noise is one-sided); the
  // decision trace must be identical on every rep — that IS the replay
  // determinism contract, so a CRC flip here is a hard failure.
  std::unique_ptr<stream::StreamEngine> closed_run;
  double closed_ms = 1e100;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(repeat, 3); ++rep) {
    auto engine =
        std::make_unique<stream::StreamEngine>(stream_config(spec.num_nodes));
    const auto start = Clock::now();
    for (const stream::Event& event : events) engine->apply(event);
    closed_ms = std::min(closed_ms, ms_since(start));
    if (closed_run != nullptr &&
        (engine->decision_crc() != closed_run->decision_crc() ||
         engine->state_crc() != closed_run->state_crc())) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — replaying the same event log "
                   "changed the decision trace (crc %u vs %u)\n",
                   engine->decision_crc(), closed_run->decision_crc());
      return 1;
    }
    closed_run = std::move(engine);
  }
  cases.push_back(summarize_stream_run("stream_closed", *closed_run,
                                       closed_ms, events.size()));

  {
    CaseResult refit;
    refit.name = "stream_refit";
    refit.iterations =
        static_cast<std::int64_t>(closed_run->refit_ms().size());
    refit.p50_ms = percentile(closed_run->refit_ms(), 0.50);
    refit.p99_ms = percentile(closed_run->refit_ms(), 0.99);
    cases.push_back(refit);
    CaseResult plan;
    plan.name = "stream_plan";
    plan.iterations = static_cast<std::int64_t>(closed_run->plan_ms().size());
    plan.p50_ms = percentile(closed_run->plan_ms(), 0.50);
    plan.p99_ms = percentile(closed_run->plan_ms(), 0.99);
    cases.push_back(plan);
  }

  // Open loop on the same log: plans once, never adapts to the drift.
  stream::StreamConfig open_config = stream_config(spec.num_nodes);
  open_config.open_loop = true;
  stream::StreamEngine open_run(open_config);
  for (const stream::Event& event : events) open_run.apply(event);
  cases.push_back(
      summarize_stream_run("stream_open", open_run, -1.0, events.size()));

  // One-iteration budget: every replan attempt is cut off, yet the
  // loop must keep emitting a row per tick (previous tail keeps
  // driving — never blocks on the optimizer).
  stream::StreamConfig starved_config = stream_config(spec.num_nodes);
  starved_config.planner.budget_iterations = 1;
  stream::StreamEngine starved(starved_config);
  for (const stream::Event& event : events) starved.apply(event);
  cases.push_back(
      summarize_stream_run("stream_tight_budget", starved, -1.0,
                           events.size()));

  const std::string report = to_json(cases, optimized);
  std::fputs(report.c_str(), stdout);
  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    file << report;
  }

  // Budget semantics are deterministic (the iteration budget is
  // poll-counted, not wall-clock), so these gates hold in any build.
  if (closed_run->deadline_misses() != 0) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — generous-budget closed loop "
                 "missed %llu deadlines (expected 0)\n",
                 static_cast<unsigned long long>(
                     closed_run->deadline_misses()));
    return 1;
  }
  if (starved.deadline_misses() == 0 ||
      starved.decisions().size() != static_cast<std::size_t>(spec.ticks)) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — one-iteration budget produced "
                 "%llu misses over %zu rows (expected misses > 0 and "
                 "one row per tick)\n",
                 static_cast<unsigned long long>(starved.deadline_misses()),
                 starved.decisions().size());
    return 1;
  }
  const double closed_objective = closed_run->realized_objective();
  const double open_objective = open_run.realized_objective();
  std::printf("stream_closed: %.4g realized objective vs %.4g open-loop "
              "(%llu plans, %.0f events/s)\n",
              closed_objective, open_objective,
              static_cast<unsigned long long>(closed_run->plans()),
              cases[0].events_per_sec);
  if (closed_objective >= open_objective) {
    std::fprintf(stderr,
                 "bench_driver: FAIL — closed loop realized %.6g but "
                 "the open-loop baseline realized %.6g on the same "
                 "drift scenario (closed must win)\n",
                 closed_objective, open_objective);
    return 1;
  }

  if (!optimized) {
    std::fprintf(stderr,
                 "bench_driver: stream baseline gate skipped "
                 "(unoptimized build)\n");
    return 0;
  }
  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    warn_native_mismatch(buffer.str());
    const double base = extract_case_field(buffer.str(), "stream_closed",
                                           "events_per_sec");
    if (base <= 0.0) {
      std::fprintf(stderr,
                   "bench_driver: baseline compare skipped "
                   "(stream_closed events_per_sec missing)\n");
      return 0;
    }
    const double ratio = cases[0].events_per_sec / base;
    std::printf("stream_closed: %.0f events/s vs baseline %.0f (%.2fx)\n",
                cases[0].events_per_sec, base, ratio);
    if (ratio < 0.75) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — stream_closed regressed %.0f%% "
                   "below the committed baseline (limit 25%%)\n",
                   (1.0 - ratio) * 100.0);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kError);

  std::string suite = "control";
  std::string out_path;
  std::string baseline_path;
  std::size_t repeat = 5;
  bool xl = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--suite" && a + 1 < argc) {
      suite = argv[++a];
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else if (arg == "--baseline" && a + 1 < argc) {
      baseline_path = argv[++a];
    } else if (arg == "--repeat" && a + 1 < argc) {
      repeat = static_cast<std::size_t>(std::strtoull(argv[++a], nullptr, 10));
    } else if (arg == "--xl") {
      xl = true;  // graphs suite: add the BA-100M out-of-core case
    } else if (arg == "--list-suites") {
      std::printf(
          "control  solver hot paths: interpolation, costate RHS, FBSM/"
          "PG/MPC solves (default; report BENCH_pr5.json)\n"
          "agents   dense vs frontier agent engines on BA graphs "
          "(report BENCH_pr4.json)\n"
          "kernels  src/kern dispatch-table microbench per backend "
          "(report BENCH_pr6.json)\n"
          "graphs   packed CSR vs compressed GRAPHCSZ formats; --xl "
          "adds BA-100M (report BENCH_pr8.json)\n"
          "batch    lane-per-problem batched solver vs sequential "
          "(report BENCH_pr9.json)\n"
          "stream   online streaming control loop: ingest throughput, "
          "refit/replan latency, closed vs open (report "
          "BENCH_pr10.json)\n");
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_driver [--suite control|agents|kernels|"
                   "graphs|batch|stream] [--out PATH] [--baseline PATH] "
                   "[--repeat N] [--xl] [--list-suites]\n");
      return 2;
    }
  }
  if (repeat == 0) repeat = 1;
  if (suite != "control" && suite != "agents" && suite != "kernels" &&
      suite != "graphs" && suite != "batch" && suite != "stream") {
    std::fprintf(stderr,
                 "bench_driver: unknown suite '%s' (--list-suites "
                 "prints the available ones)\n",
                 suite.c_str());
    return 2;
  }
  if (out_path.empty()) {
    out_path = suite == "agents"    ? "BENCH_pr4.json"
               : suite == "kernels" ? "BENCH_pr6.json"
               : suite == "graphs"  ? "BENCH_pr8.json"
               : suite == "batch"   ? "BENCH_pr9.json"
               : suite == "stream"  ? "BENCH_pr10.json"
                                    : "BENCH_pr5.json";
  }

  const bool optimized = bench::warn_if_unoptimized();
  if (suite == "agents") {
    return run_agents_suite(out_path, baseline_path, optimized);
  }
  if (suite == "kernels") {
    return run_kernels_suite(out_path, baseline_path, optimized,
                             std::max<std::size_t>(repeat, 3));
  }
  if (suite == "graphs") {
    return run_graphs_suite(out_path, baseline_path, optimized, xl);
  }
  if (suite == "batch") {
    return run_batch_suite(out_path, baseline_path, optimized, repeat);
  }
  if (suite == "stream") {
    return run_stream_suite(out_path, baseline_path, optimized, repeat);
  }

  const auto model = bench::fig4_model(10);
  const auto cost = bench::fig4_cost();
  const auto y0 = model.initial_state(0.01);
  const double tf = 20.0;

  std::vector<CaseResult> cases;
  cases.push_back(run_trajectory_interp());
  cases.push_back(run_costate_rhs());
  cases.push_back(run_forward_integrate());

  cases.push_back(run_solver_case("fbsm_small", repeat, [&] {
    const auto result =
        control::solve_optimal_control(model, y0, tf, cost,
                                       small_solve_options());
    return static_cast<std::int64_t>(result.iterations);
  }));
  cases.push_back(run_solver_case("pg_small", repeat, [&] {
    auto options = small_solve_options();
    options.algorithm = control::SweepAlgorithm::kProjectedGradient;
    const auto result =
        control::solve_optimal_control(model, y0, tf, cost, options);
    return static_cast<std::int64_t>(result.iterations);
  }));
  cases.push_back(run_solver_case("mpc_small", repeat, [&] {
    control::MpcOptions options;
    options.replan_interval = 5.0;
    options.plant_dt = 0.05;
    options.sweep = small_solve_options();
    options.sweep.max_iterations = 15;
    const auto result = control::run_mpc(model, y0, tf, cost, options);
    return static_cast<std::int64_t>(result.replans);
  }));

  const std::string report = to_json(cases, optimized);
  std::fputs(report.c_str(), stdout);
  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    file << report;
  }

  for (const auto& r : cases) {
    if (r.allocs_per_eval > 0.0) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — %s performs %.6f heap "
                   "allocations per evaluation (expected 0 after "
                   "warm-up)\n",
                   r.name.c_str(), r.allocs_per_eval);
      return 1;
    }
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "bench_driver: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string baseline = buffer.str();
    warn_native_mismatch(baseline);

    const double base_ms = extract_case_field(baseline, "fbsm_small",
                                              "wall_ms");
    const double now_ms = extract_case_field(report, "fbsm_small",
                                             "wall_ms");
    if (base_ms <= 0.0 || now_ms <= 0.0) {
      std::fprintf(stderr,
                   "bench_driver: baseline compare skipped (fbsm_small "
                   "wall_ms missing)\n");
      return 0;
    }
    if (!optimized) {
      std::fprintf(stderr,
                   "bench_driver: baseline compare skipped (unoptimized "
                   "build)\n");
      return 0;
    }
    const double ratio = now_ms / base_ms;
    std::printf("fbsm_small: %.3f ms vs baseline %.3f ms (%.2fx)\n",
                now_ms, base_ms, ratio);
    if (ratio > 1.25) {
      std::fprintf(stderr,
                   "bench_driver: FAIL — fbsm_small regressed %.0f%% "
                   "over the committed baseline (limit 25%%)\n",
                   (ratio - 1.0) * 100.0);
      return 1;
    }
  }
  return 0;
}
