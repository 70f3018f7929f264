// serve: an in-process rumord (serve::Server on a Unix socket, two
// scheduler workers) driven closed-loop by three serve::Client
// connections. Each client submits a seeded mix of small jobs and waits
// for each — simulate on a 20k-node BA graph kept hot in the graph
// cache, plan at 10 groups alternating FBSM and projected gradient, and
// stream over a small scenario log — and between submits reads the
// status of one of its earlier jobs.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "graph/generators.hpp"
#include "io/graph_binary.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stream/event.hpp"
#include "stream/scenario.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rumor;

constexpr std::size_t kClients = 3;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kGraphNodes = 20'000;
constexpr std::size_t kStreamNodes = 2'000;
constexpr char kGraphFile[] = "ba20k.csr";

struct JobSpec {
  std::string type;
  io::JsonValue spec;
};

// The seeded job mix: per client, an ordered list of jobs drawn from a
// small pool of specs, so every spec completes several times and each
// completion can be checked against the first.
std::vector<std::vector<JobSpec>> load_mix(const std::string& dir) {
  std::ifstream in(dir + "/mix.json");
  util::require(in.good(), "serve: cannot open the job mix");
  std::stringstream text;
  text << in.rdbuf();
  const io::JsonValue doc = io::JsonValue::parse(text.str());
  std::vector<std::vector<JobSpec>> mix;
  for (const io::JsonValue& client : doc.as_array()) {
    std::vector<JobSpec> jobs;
    for (const io::JsonValue& job : client.as_array()) {
      jobs.push_back({job.string_or("type", ""), *job.find("spec")});
    }
    mix.push_back(std::move(jobs));
  }
  return mix;
}

// The result fingerprint of a finished job.
double result_crc(const std::string& type, const io::JsonValue& result) {
  if (type == "simulate") return result.number_or("state_crc", -1.0);
  if (type == "plan") return result.number_or("control_crc", -1.0);
  return result.number_or("decision_crc", -1.0);
}

struct Sample {
  std::string type;
  double ms = 0.0;
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<Sample> jobs;
  std::vector<double> status_ms;
  std::size_t threads_peak = 0;
};

class Harness {
 public:
  Harness(const Options& options, Report& report)
      : options_(options),
        report_(report),
        mix_(load_mix(options.dir)),
        graph_path_(options.dir + "/" + kGraphFile) {}
  ~Harness() { stop(); }

  // Program set-up: start the daemon, connect the clients and warm the
  // graph cache.
  void start() {
    serve::ServerOptions server_options;
    server_options.unix_path = options_.dir + "/rumord.sock";
    server_options.scheduler.workers = kWorkers;
    server_options.scheduler.job_root = options_.dir + "/jobs";
    server_ = std::make_unique<serve::Server>(std::move(server_options));
    server_->start();
    clients_.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<serve::Client>(
          serve::Client::connect_unix(server_->unix_path())));
    }
    // Warm the graph cache: a one-step simulate on the mix's graph.
    io::JsonValue warm = io::JsonValue::make_object();
    warm.set("graph", graph_path_);
    warm.set("t_end", 0.1);
    const std::uint64_t id = clients_[0]->submit("simulate", warm);
    clients_[0]->wait(id, std::chrono::minutes(1));
  }

  void stop() {
    clients_.clear();
    if (server_) {
      server_->stop();
      server_->wait();
      server_.reset();
    }
  }

  PassResult pass() {
    PassResult r;
    std::vector<std::vector<Sample>> jobs(kClients);
    std::vector<std::vector<double>> status(kClients);
    std::atomic<std::size_t> running{kClients};
    const auto start = Clock::now();
    {
      const Span root("bench:pass");
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          client_loop(c, jobs[c], status[c]);
          running.fetch_sub(1);
        });
      }
      while (running.load() != 0) {
        r.threads_peak = std::max(r.threads_peak, thread_count());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      for (std::thread& t : threads) t.join();
    }
    r.wall_s = seconds_since(start);
    for (std::size_t c = 0; c < kClients; ++c) {
      r.jobs.insert(r.jobs.end(), jobs[c].begin(), jobs[c].end());
      r.status_ms.insert(r.status_ms.end(), status[c].begin(),
                         status[c].end());
    }
    return r;
  }

 private:
  void client_loop(std::size_t c, std::vector<Sample>& jobs,
                   std::vector<double>& status) {
    const Span root("bench:client");
    serve::Client& client = *clients_[c];
    std::vector<std::uint64_t> done;
    util::Xoshiro256 pick(options_.seed * 31 + c);
    for (const JobSpec& job : mix_[c]) {
      bool ok = false;
      std::string why = "serve: " + job.type + " job did not finish done";
      const auto start = Clock::now();
      std::uint64_t id = 0;
      try {
        io::JsonValue snapshot;
        {
          Span span("serve:submit_wait");
          id = client.submit(job.type, job.spec);
          span.tag(id);
          snapshot = client.wait(id, std::chrono::minutes(1));
        }
        jobs.push_back({job.type, ms_since(start)});
        const io::JsonValue* result = snapshot.find("result");
        if (snapshot.string_or("state", "") == "done" && result != nullptr) {
          ok = same_as_first(job, result_crc(job.type, *result));
          why = "serve: a " + job.type + " result differs from the first "
                "completion of the same spec";
        }
      } catch (const std::exception& e) {
        why = std::string("serve: request failed: ") + e.what();
      }
      report_check(ok, why);
      if (id != 0) done.push_back(id);
      if (done.empty()) continue;
      const std::uint64_t earlier = done[pick.uniform_index(done.size())];
      const auto status_start = Clock::now();
      bool status_ok = false;
      try {
        const Span span("serve:status", earlier);
        status_ok = client.status(earlier).string_or("state", "") == "done";
      } catch (const std::exception&) {
      }
      status.push_back(ms_since(status_start));
      report_check(status_ok, "serve: status of a finished job failed");
    }
  }

  bool same_as_first(const JobSpec& job, double crc) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        first_crc_.emplace(job.type + job.spec.dump(), crc);
    return crc >= 0.0 && it->second == crc;
  }

  void report_check(bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    report_.attempt(1);
    report_.check(ok, what);
  }

  const Options& options_;
  Report& report_;
  const std::vector<std::vector<JobSpec>> mix_;
  const std::string graph_path_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::mutex mutex_;  // guards report_ and first_crc_
  std::map<std::string, double> first_crc_;
};

std::vector<double> ms_of(const std::vector<Sample>& samples,
                          const std::string& type = "") {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (type.empty() || s.type == type) out.push_back(s.ms);
  }
  return out;
}

PassSlots slots(const PassResult& r) {
  const std::vector<double> job_ms = ms_of(r.jobs);
  return {r.wall_s, median(job_ms), tail_percentile(job_ms).value,
          median(r.status_ms)};
}

}  // namespace

void prepare_serve(const Options& options) {
  util::Xoshiro256 rng(options.seed);
  const std::string graph_path = options.dir + "/" + kGraphFile;
  io::save_graph(graph::barabasi_albert(kGraphNodes, 3, rng), graph_path);

  stream::ScenarioSpec scenario;
  scenario.num_nodes = kStreamNodes;
  scenario.seed = options.seed;
  scenario.initial_nodes = 200;
  scenario.ticks = 150;
  scenario.grow_per_tick = 12;
  scenario.seed_tick = 10;
  scenario.seed_count = 10;
  scenario.drift_tick = 80;
  const std::string events_path = options.dir + "/scenario.bin";
  stream::save_event_log(stream::make_scenario(scenario), events_path,
                         stream::EventLogWriter::Format::kBinary);

  // A pool of specs: four simulate seeds, four plans (two per
  // algorithm), two stream configurations.
  std::vector<JobSpec> pool;
  for (int s = 0; s < 4; ++s) {
    io::JsonValue spec = io::JsonValue::make_object();
    spec.set("graph", graph_path);
    spec.set("seed", static_cast<double>(rng.uniform_index(1000) + 1));
    spec.set("t_end", 20.0);
    spec.set("lambda_scale", 2.0);
    spec.set("eps1", 0.02);
    spec.set("eps2", 0.05);
    spec.set("initial_infected", 20.0);
    pool.push_back({"simulate", std::move(spec)});
  }
  for (int p = 0; p < 4; ++p) {
    io::JsonValue spec = io::JsonValue::make_object();
    spec.set("graph", graph_path);
    spec.set("groups", 10.0);
    spec.set("algorithm", p % 2 == 0 ? "fbsm" : "pg");
    spec.set("i0", 0.05 + 0.05 * rng.uniform());
    pool.push_back({"plan", std::move(spec)});
  }
  for (int s = 0; s < 2; ++s) {
    io::JsonValue spec = io::JsonValue::make_object();
    spec.set("events", events_path);
    spec.set("num_nodes", static_cast<double>(kStreamNodes));
    spec.set("seed", static_cast<double>(s + 1));
    spec.set("lambda_scale", 2.0);
    spec.set("budget_iterations", 40.0);
    pool.push_back({"stream", std::move(spec)});
  }
  // Every client gets the same composition — 10 simulate, 8 plan (half
  // FBSM, half PG), 6 stream per pass — in its own seeded order, so the
  // seed varies the inputs and interleaving but not the amount of work.
  const std::pair<const char*, std::size_t> composition[] = {
      {"simulate", 10}, {"plan", 8}, {"stream", 6}};
  io::JsonValue mix = io::JsonValue::make_array();
  for (std::size_t c = 0; c < kClients; ++c) {
    std::vector<const JobSpec*> picks;
    for (const auto& [type, count] : composition) {
      std::vector<const JobSpec*> of_type;
      for (const JobSpec& job : pool) {
        if (job.type == type) of_type.push_back(&job);
      }
      for (std::size_t j = 0; j < count; ++j) {
        picks.push_back(of_type[(j + c) % of_type.size()]);
      }
    }
    for (std::size_t j = picks.size(); j > 1; --j) {
      std::swap(picks[j - 1], picks[rng.uniform_index(j)]);
    }
    io::JsonValue jobs = io::JsonValue::make_array();
    for (const JobSpec* pick : picks) {
      io::JsonValue job = io::JsonValue::make_object();
      job.set("type", pick->type);
      job.set("spec", pick->spec);
      jobs.push_back(std::move(job));
    }
    mix.push_back(std::move(jobs));
  }
  std::ofstream out(options.dir + "/mix.json");
  out << mix.dump() << "\n";
  util::require(out.good(), "serve: cannot write the job mix");
}

void run_serve(const Options& options, Report& report) {
  util::set_num_threads(1);  // each job runs on its scheduler worker
  report.info = attribution(kWorkers);
  report.info.set("clients", static_cast<double>(kClients));
  Harness harness(options, report);

  // Set-up (start, connect, warm the cache) is repeated before every
  // pass, so its samples spread over the run.
  std::vector<double> setup_samples;
  const auto restart = [&] {
    harness.stop();
    const auto start = Clock::now();
    harness.start();
    setup_samples.push_back(seconds_since(start));
  };
  restart();
  restart();

  std::vector<PassResult> passes;
  if (!options.trace) {
    run_passes(options.seconds, 2, [&](std::size_t p) {
      if (p != 0) restart();
      passes.push_back(harness.pass());
    });
    harness.stop();
    std::vector<PassSlots> each;
    for (const PassResult& r : passes) each.push_back(slots(r));
    const PassSlots typical = typical_slots(each);
    add_e2e_metrics(report, setup_samples, each);
    report.add_named("serve.jobs_per_s",
                     static_cast<double>(passes.front().jobs.size()) /
                         typical.wall_s,
                     "1/s");
    report.add_named("serve.job_ms_p50", typical.op_ms_p50, "ms");
    report.add_named("serve.job_ms_p99", typical.op_ms_tail, "ms");
    report.add_named("serve.status_ms_p50", typical.aux_ms, "ms");
    report.info.set("jobs_per_pass",
                    static_cast<double>(passes.front().jobs.size()));
    report.info.set("job_tail_percentile",
                    tail_percentile(ms_of(passes.front().jobs)).percentile);
    return;
  }

  // ---- traced run ---------------------------------------------------
  passes.push_back(harness.pass());  // untraced reference
  const CounterWindow counters;
  const HistogramTotals queue0 = histogram_totals("serve.queue.latency_ms");
  const HistogramTotals run0 = histogram_totals("serve.job.duration_ms");
  trace_begin();
  const double t0 = trace_now_ms();
  passes.push_back(harness.pass());
  const double t1 = trace_now_ms();
  const std::vector<SpanEvent> events = trace_end();
  counters.finish(report);
  const HistogramTotals queue1 = histogram_totals("serve.queue.latency_ms");
  const HistogramTotals run1 = histogram_totals("serve.job.duration_ms");
  harness.stop();
  const PassResult& untraced = passes[0];
  const PassResult& traced = passes[1];

  add_overhead(report, slots(untraced), slots(traced));

  std::vector<std::uint32_t> client_tids;
  for (const SpanEvent& e : events) {
    if (e.name == "bench:client") client_tids.push_back(e.tid);
  }
  report.ledger = build_ledger(events, client_tids, t0, t1);

  const double queue_ms = queue1.sum - queue0.sum;
  const double run_ms = run1.sum - run0.sum;
  const double round_trip_ms = sum(ms_of(traced.jobs));
  report.add_layer("serve.queue_wait_ms", queue_ms, "ms");
  report.add_layer("serve.run_ms", run_ms, "ms");
  report.add_layer("serve.jobs_run", static_cast<double>(run1.count - run0.count),
                   "count");
  report.add_layer("serve.protocol_ms", round_trip_ms - queue_ms - run_ms,
                   "ms_residual");
  set_ledger_split(report, "all client submit-to-result round trips",
                   {{"serve.queue_wait", queue_ms},
                    {"serve.run", run_ms},
                    {"serve.protocol", round_trip_ms - queue_ms - run_ms}});
  for (const char* type : {"simulate", "plan", "stream"}) {
    report.add_layer(std::string("serve.job_ms_p50.") + type,
                     median(ms_of(traced.jobs, type)), "ms");
  }
  report.add_layer("serve.threads_peak",
                   static_cast<double>(traced.threads_peak), "count");
  report.info.set("trace_events", static_cast<double>(events.size()));
  write_chrome_trace(events, options.out + "/trace-serve.json");
}

}  // namespace perfbench
