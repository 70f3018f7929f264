// Shared pieces of the end-to-end benchmark: timing and percentile
// helpers, the report every workload fills, and the benchmark-side span
// recorder the traced run uses to build its per-layer ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

namespace io = rumor::io;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

/// Command-line options shared by `prepare` and `run`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measurement budget of one run
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  std::string dir;        ///< input directory written by `prepare`
  std::string out;        ///< where a traced run writes its Chrome trace
};

// ---- statistics -----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
/// The run-level estimate of a time measured once per pass or operation
/// (README.md).
inline double lower_quartile(const std::vector<double>& values) {
  return quantile(values, 0.25);
}

/// The highest whole percentile (at most 99) that still leaves at least
/// ten samples above it, and the value there.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
Tail tail_percentile(const std::vector<double>& values);

double sum(const std::vector<double>& values);

// ---- measurement loop -------------------------------------------------

/// Runs `pass` (one unit of the workload's fixed work) until the
/// measurement budget is spent: always at least `min_passes`, and no
/// further pass once the next one would overrun the budget by more than
/// a quarter of a pass.
void run_passes(double budget_seconds, std::size_t min_passes,
                const std::function<void(std::size_t)>& pass);

/// Pins the calling thread to CPU `index` (mod the count) of the
/// process's starting affinity mask. On a shared host each vCPU runs at
/// its own speed, set by what other tenants run beside it, and an idle
/// scheduler leaves a lone thread where it first landed; moving a
/// workload's timed operations over all vCPUs makes every run sample
/// every vCPU instead of inheriting one placement. A no-op when the mask
/// holds one CPU.
void move_to_cpu(std::size_t index);

/// Median of `repeats` timings of `fn` in seconds.
double median_seconds(std::size_t repeats, const std::function<void()>& fn);

// ---- report -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints. `e2e` holds the BENCHMARK.json end-to-end
/// slots, `named` the workload-specific metric names those slots map to,
/// `layers` the per-layer metrics of a traced run.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> named;
  std::map<std::string, Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks
  io::JsonValue info = io::JsonValue::make_object();
  io::JsonValue ledger = io::JsonValue::make_object();

  /// Count `ops` attempted operations.
  void attempt(std::uint64_t ops) { attempted += ops; }
  /// Mark one attempted operation failed unless `ok`.
  void check(bool ok, const std::string& what);

  void add_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void add_named(const std::string& name, double value,
                 const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value,
                 const std::string& unit) {
    layers[name] = {name, value, unit};
  }
};

/// The four time metrics of one pass, in BENCHMARK.json's end-to-end
/// slots (each workload defines what its slots measure; README.md).
struct PassSlots {
  double wall_s = 0.0;
  double op_ms_p50 = 0.0;
  double op_ms_tail = 0.0;
  double aux_ms = 0.0;
};

/// Each slot's lower quartile over `passes`.
PassSlots typical_slots(const std::vector<PassSlots>& passes);

/// The end-to-end metrics of an untraced run: the median set-up time,
/// peak RSS, and each time slot's lower quartile over the run's passes
/// (kept one by one in `info`). The lower quartile, not the median or
/// the minimum: on a shared host other tenants slow the same code by up
/// to 1.8x in stretches of seconds to minutes, and only ever add time
/// (README.md). The median of a run's few passes follows how many of
/// them fell into a slow stretch; a minimum rests on one lucky pass.
void add_e2e_metrics(Report& report, const std::vector<double>& setup_s,
                     const std::vector<PassSlots>& passes);
/// The same from slots the workload already reduced over its run.
void add_e2e_metrics(Report& report, const std::vector<double>& setup_s,
                     const PassSlots& typical);

/// Tracing overhead: traced minus untraced, per time slot.
void add_overhead(Report& report, const PassSlots& untraced,
                  const PassSlots& traced);

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();
/// Current thread count of this process (/proc/self/status).
std::size_t thread_count();

/// Kernel backend, thread counts, nproc, compiler and build type.
io::JsonValue attribution(std::size_t workload_threads);

// ---- tracing ----------------------------------------------------------

/// A benchmark-side span around one call into a layer. The name is
/// "<layer>:<call>" and must be a string literal. Spans go to the
/// library's trace collector, so spans the library records itself
/// (fbsm.iteration, sim.step, ...) nest under them on the same thread.
/// A non-zero `job` tags the span with a serve job id in the exported
/// Chrome trace.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t job = 0) noexcept;
  ~Span();
  /// Tag the span with a job id learned after it opened.
  void tag(std::uint64_t job) noexcept { job_ = job; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t job_ = 0;
};

/// One recorded span, parsed back from the collector.
struct SpanEvent {
  std::string name;
  std::uint32_t tid = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t job = 0;
};

/// Start a fresh trace (drops earlier events) and enable recording.
void trace_begin();
/// Stop recording and return every event recorded since trace_begin().
std::vector<SpanEvent> trace_end();
/// Trace clock now, in ms (same clock as SpanEvent times).
double trace_now_ms();

/// The layer a span belongs to: the part before ':' for benchmark spans,
/// and the library's own span prefixes mapped onto modules otherwise.
/// The benchmark's root spans are named "bench:<...>".
std::string layer_of(const std::string& span_name);

/// Per-layer self time over the threads `tids` and the window
/// [t0, t1] (ms): each span's self time is its duration minus the part
/// its children cover on the same thread. Window time covered by no
/// span, or only by a "bench:" root, is `unattributed`. Totals are
/// divided by the number of threads, so the entries add up to t1 - t0.
/// Also fills per-layer span counts and busy time over every thread.
io::JsonValue build_ledger(const std::vector<SpanEvent>& events,
                           const std::vector<std::uint32_t>& tids, double t0,
                           double t1);

/// Record in the ledger how a span's self time (or another total, named
/// by `of`) divides among the pieces a replica or a registry metric
/// measured; `parts` are (name, ms) pairs whose last entry is usually a
/// residual.
void set_ledger_split(
    Report& report, const std::string& of,
    const std::vector<std::pair<std::string, double>>& parts);

/// Write the events as Chrome trace JSON (job ids as span args).
void write_chrome_trace(const std::vector<SpanEvent>& events,
                        const std::string& path);

/// Deltas of the registry counters the per-layer metrics name, over
/// the lifetime of this object (construct before the measured work,
/// call finish() after it).
class CounterWindow {
 public:
  CounterWindow();
  void finish(Report& report) const;

 private:
  std::map<std::string, std::uint64_t> start_;
};

/// Registry counter value (0 when absent).
std::uint64_t counter_value(const char* name);
/// Registry histogram sum and count (0 when absent).
struct HistogramTotals {
  double sum = 0.0;
  std::uint64_t count = 0;
};
HistogramTotals histogram_totals(const char* name);

}  // namespace perfbench
