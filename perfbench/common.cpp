#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "kern/kern.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/build_info.hpp"
#include "util/file.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Tail tail_percentile(const std::vector<double>& values) {
  const auto n = static_cast<double>(values.size());
  Tail tail;
  // At least ten samples above the p-th percentile: (1 - p/100)·n >= 10.
  const double p = n > 0.0 ? std::floor(100.0 * (1.0 - 10.0 / n)) : 0.0;
  tail.percentile = std::clamp(p, 50.0, 99.0);
  tail.value = quantile(values, tail.percentile / 100.0);
  return tail;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

void run_passes(double budget_seconds, std::size_t min_passes,
                const std::function<void(std::size_t)>& pass) {
  const auto start = Clock::now();
  std::size_t done = 0;
  double longest = 0.0;
  while (true) {
    const double elapsed = seconds_since(start);
    if (done >= min_passes && elapsed + 0.75 * longest > budget_seconds) break;
    const auto pass_start = Clock::now();
    pass(done++);
    longest = std::max(longest, seconds_since(pass_start));
  }
}

void move_to_cpu(std::size_t index) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &mask)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus[index % cpus.size()], &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

double median_seconds(std::size_t repeats, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

PassSlots typical_slots(const std::vector<PassSlots>& passes) {
  std::vector<double> wall, p50, tail, aux;
  for (const PassSlots& p : passes) {
    wall.push_back(p.wall_s);
    p50.push_back(p.op_ms_p50);
    tail.push_back(p.op_ms_tail);
    aux.push_back(p.aux_ms);
  }
  return {lower_quartile(wall), lower_quartile(p50), lower_quartile(tail),
          lower_quartile(aux)};
}

void add_e2e_metrics(Report& report, const std::vector<double>& setup_s,
                     const PassSlots& typical) {
  report.add_e2e("setup_s", median(setup_s), "s");
  report.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.add_e2e("wall_s", typical.wall_s, "s");
  report.add_e2e("op_ms_p50", typical.op_ms_p50, "ms");
  report.add_e2e("op_ms_tail", typical.op_ms_tail, "ms");
  report.add_e2e("aux_ms", typical.aux_ms, "ms");
  report.info.set("setup_samples", static_cast<double>(setup_s.size()));
}

void add_e2e_metrics(Report& report, const std::vector<double>& setup_s,
                     const std::vector<PassSlots>& passes) {
  add_e2e_metrics(report, setup_s, typical_slots(passes));
  io::JsonValue all = io::JsonValue::make_array();
  for (const PassSlots& p : passes) {
    io::JsonValue entry = io::JsonValue::make_array();
    for (const double v : {p.wall_s, p.op_ms_p50, p.op_ms_tail, p.aux_ms}) {
      entry.push_back(v);
    }
    all.push_back(std::move(entry));
  }
  report.info.set("passes_wall_p50_tail_aux", std::move(all));
}

void add_overhead(Report& report, const PassSlots& untraced,
                  const PassSlots& traced) {
  report.add_layer("overhead.wall_s", traced.wall_s - untraced.wall_s, "s");
  report.add_layer("overhead.op_ms_p50", traced.op_ms_p50 - untraced.op_ms_p50,
                   "ms");
  report.add_layer("overhead.op_ms_tail",
                   traced.op_ms_tail - untraced.op_ms_tail, "ms");
  report.add_layer("overhead.aux_ms", traced.aux_ms - untraced.aux_ms, "ms");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

io::JsonValue attribution(std::size_t workload_threads) {
  const rumor::util::BuildInfo& build = rumor::util::build_info();
  io::JsonValue info = io::JsonValue::make_object();
  info.set("kernel_backend",
           rumor::kern::to_string(rumor::kern::backend()));
  info.set("threads", static_cast<double>(workload_threads));
  info.set("nproc",
           static_cast<double>(std::thread::hardware_concurrency()));
  info.set("compiler", build.compiler);
  info.set("build_type", build.build_type);
  info.set("version", build.git_describe);
  return info;
}

// ---- tracing ----------------------------------------------------------

namespace {

struct JobTag {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t job = 0;
};

std::mutex g_tags_mutex;
std::vector<JobTag> g_tags;  // guarded by g_tags_mutex

}  // namespace

Span::Span(const char* name, std::uint64_t job) noexcept {
  if (rumor::obs::trace_enabled()) {
    name_ = name;
    job_ = job;
    start_ns_ = rumor::obs::detail::trace_now_ns();
  }
}

Span::~Span() {
  if (name_ == nullptr) return;
  rumor::obs::detail::record_span(name_, start_ns_,
                                  rumor::obs::detail::trace_now_ns());
  if (job_ != 0) {
    const std::lock_guard<std::mutex> lock(g_tags_mutex);
    g_tags.push_back({name_, start_ns_, job_});
  }
}

void trace_begin() {
  rumor::obs::trace_reset();
  {
    const std::lock_guard<std::mutex> lock(g_tags_mutex);
    g_tags.clear();
  }
  rumor::obs::set_trace_enabled(true);
}

std::vector<SpanEvent> trace_end() {
  rumor::obs::set_trace_enabled(false);
  const io::JsonValue doc =
      io::JsonValue::parse(rumor::obs::trace_to_json());
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> tags;
  {
    const std::lock_guard<std::mutex> lock(g_tags_mutex);
    for (const JobTag& tag : g_tags) tags[{tag.name, tag.start_ns}] = tag.job;
  }
  std::vector<SpanEvent> events;
  for (const io::JsonValue& e : doc.find("traceEvents")->as_array()) {
    SpanEvent event;
    event.name = e.string_or("name", "");
    event.tid = static_cast<std::uint32_t>(e.u64_or("tid", 0));
    const double ts_us = e.number_or("ts", 0.0);
    event.start_ms = ts_us * 1e-3;
    event.end_ms = (ts_us + e.number_or("dur", 0.0)) * 1e-3;
    const auto start_ns = static_cast<std::uint64_t>(std::llround(ts_us * 1e3));
    const auto tag = tags.find({event.name, start_ns});
    if (tag != tags.end()) event.job = tag->second;
    events.push_back(std::move(event));
  }
  return events;
}

double trace_now_ms() {
  return static_cast<double>(rumor::obs::detail::trace_now_ns()) * 1e-6;
}

std::string layer_of(const std::string& span_name) {
  const auto colon = span_name.find(':');
  if (colon != std::string::npos) return span_name.substr(0, colon);
  const std::string prefix = span_name.substr(0, span_name.find('.'));
  if (prefix == "fbsm" || prefix == "pg" || prefix == "mpc") return "control";
  if (prefix == "ensemble") return "sim";
  return prefix;
}

io::JsonValue build_ledger(const std::vector<SpanEvent>& events,
                           const std::vector<std::uint32_t>& tids, double t0,
                           double t1) {
  const std::set<std::uint32_t> wanted(tids.begin(), tids.end());
  std::map<std::string, double> self_ms;   // over `tids`, inside the window
  std::map<std::string, double> busy_ms;   // every thread, whole trace
  std::map<std::string, double> count;     // every thread, whole trace
  std::map<std::uint32_t, std::vector<const SpanEvent*>> by_thread;
  for (const SpanEvent& e : events) {
    busy_ms[layer_of(e.name)] += e.end_ms - e.start_ms;
    count[layer_of(e.name)] += 1.0;
    if (wanted.count(e.tid) != 0) by_thread[e.tid].push_back(&e);
  }
  double attributed = 0.0;
  for (auto& [tid, list] : by_thread) {
    // Parents before children: earlier start first, longer span first.
    std::sort(list.begin(), list.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                if (a->start_ms != b->start_ms) return a->start_ms < b->start_ms;
                return a->end_ms > b->end_ms;
              });
    struct Open {
      const SpanEvent* span;
      double child_ms;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& open) {
      const double lo = std::max(open.span->start_ms, t0);
      const double hi = std::min(open.span->end_ms, t1);
      const double own = std::max(0.0, hi - lo) - open.child_ms;
      const std::string layer = layer_of(open.span->name);
      // The benchmark's own root spans are glue: their self time stays
      // unattributed.
      if (layer != "bench") {
        self_ms[layer] += own;
        attributed += own;
      }
      if (!stack.empty()) stack.back().child_ms += std::max(0.0, hi - lo);
    };
    for (const SpanEvent* e : list) {
      while (!stack.empty() && stack.back().span->end_ms <= e->start_ms) {
        const Open top = stack.back();
        stack.pop_back();
        close(top);
      }
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      const Open top = stack.back();
      stack.pop_back();
      close(top);
    }
  }
  const double threads = std::max<double>(1.0, static_cast<double>(wanted.size()));
  const double wall_ms = t1 - t0;
  io::JsonValue ledger = io::JsonValue::make_object();
  io::JsonValue self = io::JsonValue::make_object();
  for (const auto& [layer, ms] : self_ms) self.set(layer, ms / threads);
  ledger.set("wall_ms", wall_ms);
  ledger.set("threads", threads);
  ledger.set("self_ms", std::move(self));
  ledger.set("unattributed_ms", wall_ms - attributed / threads);
  io::JsonValue busy = io::JsonValue::make_object();
  for (const auto& [layer, ms] : busy_ms) busy.set(layer, ms);
  ledger.set("busy_ms_all_threads", std::move(busy));
  io::JsonValue counts = io::JsonValue::make_object();
  for (const auto& [layer, n] : count) counts.set(layer, n);
  ledger.set("spans", std::move(counts));
  return ledger;
}

void set_ledger_split(
    Report& report, const std::string& of,
    const std::vector<std::pair<std::string, double>>& parts) {
  io::JsonValue ms = io::JsonValue::make_object();
  for (const auto& [name, value] : parts) ms.set(name, value);
  io::JsonValue split = io::JsonValue::make_object();
  split.set("of", of);
  split.set("ms", std::move(ms));
  report.ledger.set("split", std::move(split));
}

void write_chrome_trace(const std::vector<SpanEvent>& events,
                        const std::string& path) {
  std::ostringstream json;
  json.precision(3);
  json << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    json << (i == 0 ? "" : ",") << "{\"name\":\"" << e.name
         << "\",\"cat\":\"" << layer_of(e.name)
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
         << ",\"ts\":" << e.start_ms * 1e3
         << ",\"dur\":" << (e.end_ms - e.start_ms) * 1e3;
    if (e.job != 0) json << ",\"args\":{\"job\":" << e.job << "}";
    json << "}";
  }
  json << "]}\n";
  rumor::util::write_file_atomic(path, json.str());
}

namespace {

// Registry counter → per-layer metric name.
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"fbsm.iterations", "fbsm.iterations"},
    {"pg.iterations", "pg.iterations"},
    {"pg.backtracks", "pg.backtracks"},
    {"ode.rhs_evals", "ode.rhs_evals"},
    {"sim.edges_scanned", "sim.edges_scanned"},
    {"sim.infections", "sim.infections"},
    {"sim.steps", "sim.steps"},
    {"stream.rebuilds", "stream.rebuilds"},
    {"stream.refits", "stream.refits"},
    {"stream.refit_failures", "stream.refit_failures"},
    {"stream.replans", "stream.replans"},
    {"stream.deadline_miss", "stream.deadline_miss"},
    {"serve.requests", "serve.requests"},
    {"serve.jobs.rejected", "serve.jobs_rejected"},
    {"serve.protocol_errors", "serve.protocol_errors"},
    {"serve.cache.hits", "serve.cache_hits"},
    {"serve.cache.misses", "serve.cache_misses"},
};

}  // namespace

CounterWindow::CounterWindow() {
  const auto snapshot = rumor::obs::metrics().snapshot();
  for (const auto& [registry, metric] : kCounters) {
    start_[registry] = snapshot.counter(registry);
  }
}

void CounterWindow::finish(Report& report) const {
  const auto snapshot = rumor::obs::metrics().snapshot();
  for (const auto& [registry, metric] : kCounters) {
    report.add_layer(metric,
                     static_cast<double>(snapshot.counter(registry) -
                                         start_.at(registry)),
                     "count");
  }
}

std::uint64_t counter_value(const char* name) {
  return rumor::obs::metrics().snapshot().counter(name);
}

HistogramTotals histogram_totals(const char* name) {
  const auto snapshot = rumor::obs::metrics().snapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return {h.sum, h.count};
  }
  return {};
}

}  // namespace perfbench
