// spread: a seeded BA graph (1M nodes, m = 3) stored as a compressed
// GRAPHCSZ container, opened with io::load_compressed_graph and stepped
// by a frontier AgentSimulation to t = 30 (300 steps) in the persistent
// regime, with a census every step, on two threads.
#include <algorithm>
#include <map>
#include <memory>

#include "graph/compressed.hpp"
#include "io/crc32.hpp"
#include "io/graph_compressed.hpp"
#include "io/graph_stream.hpp"
#include "sim/agent_sim.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rumor;

constexpr std::uint64_t kNodes = 1'000'000;
constexpr std::uint64_t kEdgesPerNode = 3;
constexpr std::size_t kSteps = 300;  // t = 30 at dt = 0.1
constexpr std::size_t kSeeded = kNodes / 100;
constexpr std::size_t kThreads = 2;
// Container opens per pass: one pass steps for seconds but opens in
// ~0.1 s, so a single open per pass would leave aux_ms a few samples.
constexpr std::size_t kLoadsPerPass = 3;

sim::AgentParams spread_params() {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(2.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon1 = 0.02;
  params.epsilon2 = 0.05;
  params.dt = 0.1;
  params.engine = sim::AgentEngine::kFrontier;
  return params;
}

std::uint32_t state_crc(const sim::AgentSimulation& simulation) {
  std::vector<std::byte> bytes(simulation.num_nodes());
  for (std::size_t v = 0; v < bytes.size(); ++v) {
    bytes[v] = static_cast<std::byte>(
        simulation.state(static_cast<graph::NodeId>(v)));
  }
  return io::crc32(bytes);
}

struct PassResult {
  double load_ms = 0.0;  ///< opening the container (untraced passes)
  double build_s = 0.0;  ///< constructing and seeding the simulation
  double wall_s = 0.0;
  std::vector<double> step_ms;    ///< step() alone
  std::vector<double> census_ms;  ///< census() alone
  double active_mean = 0.0;
  sim::Census final_census;
  std::uint32_t crc = 0;
};

PassSlots slots(const PassResult& r) {
  return {r.wall_s, median(r.step_ms), tail_percentile(r.step_ms).value,
          r.load_ms};
}

bool same_census(const sim::Census& a, const sim::Census& b) {
  return a.susceptible == b.susceptible && a.infected == b.infected &&
         a.recovered == b.recovered;
}

// One pass: a fresh simulation (not timed), then the timed stepping
// from the first step() to the last census.
template <typename GraphT>
PassResult run_pass(const GraphT& graph, std::uint64_t seed, Report& report) {
  const auto build_start = Clock::now();
  sim::AgentSimulation simulation(graph, spread_params(), seed);
  simulation.seed_random_infections(kSeeded);
  PassResult r;
  r.build_s = seconds_since(build_start);
  double active_sum = 0.0;
  const auto start = Clock::now();
  {
    const Span root("bench:pass");
    for (std::size_t s = 0; s < kSteps; ++s) {
      const auto step_start = Clock::now();
      {
        const Span span("sim:step");
        simulation.step();
      }
      const auto census_start = Clock::now();
      {
        const Span span("sim:census");
        r.final_census = simulation.census();
      }
      const auto census_end = Clock::now();
      r.step_ms.push_back(
          std::chrono::duration<double, std::milli>(census_start - step_start)
              .count());
      r.census_ms.push_back(
          std::chrono::duration<double, std::milli>(census_end - census_start)
              .count());
      active_sum += static_cast<double>(simulation.active_count());
    }
  }
  r.wall_s = seconds_since(start);
  r.active_mean = active_sum / static_cast<double>(kSteps);
  r.crc = state_crc(simulation);
  report.attempt(kSteps);
  // The rumor persists: prevalence must still be rising through t = 30.
  report.check(r.final_census.infected > kSeeded,
               "spread: the rumor died out before t = 30");
  return r;
}

}  // namespace

void prepare_spread(const Options& options) {
  io::StreamBaOptions ba;
  ba.num_nodes = kNodes;
  ba.edges_per_node = kEdgesPerNode;
  ba.seed = options.seed;
  io::generate_ba_compressed(options.dir + "/ba.zg", ba);
}

void run_spread(const Options& options, Report& report) {
  util::set_num_threads(kThreads);
  report.info = attribution(kThreads);
  const std::string path = options.dir + "/ba.zg";

  // Set-up the user pays before the first step: open + deep-validate the
  // container, build the simulation and seed it. Repeated; median kept.
  std::vector<double> setup_samples, load_samples;
  std::shared_ptr<graph::CompressedGraph> zg;
  for (int r = 0; r < 3; ++r) {
    zg.reset();
    const auto start = Clock::now();
    zg = io::load_compressed_graph(path, /*deep_validate=*/true);
    load_samples.push_back(ms_since(start));
    sim::AgentSimulation simulation(*zg, spread_params(), options.seed);
    simulation.seed_random_infections(kSeeded);
    setup_samples.push_back(seconds_since(start));
  }

  std::vector<PassResult> passes;
  const auto check_repeat = [&](const PassResult& r) {
    report.check(same_census(r.final_census, passes.front().final_census) &&
                     r.crc == passes.front().crc,
                 "spread: a repeated run ended in a different state");
  };

  if (!options.trace) {
    // Each pass re-opens the container kLoadsPerPass times (timed; the
    // pass's aux_ms is their median) and rebuilds the simulation before
    // stepping: one more set-up sample per pass.
    run_passes(options.seconds, 2, [&](std::size_t) {
      std::vector<double> load_ms;
      for (std::size_t l = 0; l < kLoadsPerPass; ++l) {
        zg.reset();  // one graph resident at a time
        const auto start = Clock::now();
        zg = io::load_compressed_graph(path, /*deep_validate=*/true);
        load_ms.push_back(ms_since(start));
      }
      passes.push_back(run_pass(*zg, options.seed, report));
      passes.back().load_ms = median(load_ms);
      setup_samples.push_back(1e-3 * load_ms.back() + passes.back().build_s);
      check_repeat(passes.back());
    });
    std::vector<PassSlots> each;
    for (const PassResult& r : passes) each.push_back(slots(r));
    add_e2e_metrics(report, setup_samples, each);
    report.add_named("spread.wall_s", typical_slots(each).wall_s, "s");
    report.info.set("step_tail_percentile",
                    tail_percentile(passes.front().step_ms).percentile);
    report.info.set("final_infected",
                    static_cast<double>(passes.front().final_census.infected));
    return;
  }

  // ---- traced run ---------------------------------------------------
  passes.push_back(run_pass(*zg, options.seed, report));  // untraced ref
  const CounterWindow counters;
  trace_begin();
  const double t0 = trace_now_ms();
  passes.push_back(run_pass(*zg, options.seed, report));
  const double t1 = trace_now_ms();
  const std::vector<SpanEvent> events = trace_end();
  counters.finish(report);
  check_repeat(passes.back());
  const PassResult& untraced = passes[0];
  const PassResult& traced = passes[1];

  add_overhead(report, slots(untraced), slots(traced));  // aux: untraced

  std::vector<std::uint32_t> main_tid;
  std::map<std::uint32_t, double> chunk_busy;
  for (const SpanEvent& e : events) {
    if (e.name == "bench:pass") main_tid = {e.tid};
    if (e.name == "sim.chunk") chunk_busy[e.tid] += e.end_ms - e.start_ms;
  }
  report.ledger = build_ledger(events, main_tid, t0, t1);

  const Tail tail = tail_percentile(traced.step_ms);
  const double step_s = 1e-3 * sum(traced.step_ms);
  report.add_layer("sim.step_ms_p50", median(traced.step_ms), "ms");
  report.add_layer("sim.step_ms_tail", tail.value, "ms");
  report.add_layer("sim.step_tail_percentile", tail.percentile, "pct");
  report.add_layer("sim.census_ms", median(traced.census_ms), "ms");
  report.add_layer("sim.frontier_active_mean", traced.active_mean, "count");
  const double edges = report.layers["sim.edges_scanned"].value;
  report.add_layer("sim.edges_per_s", step_s > 0.0 ? edges / step_s : 0.0,
                   "1/s");
  double busy_max = 0.0, busy_sum = 0.0;
  for (const auto& [tid, ms] : chunk_busy) {
    busy_max = std::max(busy_max, ms);
    busy_sum += ms;
  }
  report.add_layer("sim.chunk_imbalance",
                   busy_sum > 0.0 ? busy_max * static_cast<double>(
                                                   chunk_busy.size()) /
                                        busy_sum
                                  : 0.0,
                   "ratio");

  // Replicas, untraced: one thread on the same graph, and the packed CSR
  // the container decompresses to.
  util::set_num_threads(1);
  const PassResult single = run_pass(*zg, options.seed, report);
  util::set_num_threads(kThreads);
  report.check(single.crc == untraced.crc,
               "spread: 1-thread replica ended in a different state");
  report.add_layer("sim.parallel_efficiency",
                   single.wall_s / (static_cast<double>(kThreads) *
                                    untraced.wall_s),
                   "ratio");
  {
    const graph::Graph packed = zg->decompress();
    const PassResult csr = run_pass(packed, options.seed, report);
    report.check(csr.crc == untraced.crc &&
                     same_census(csr.final_census, untraced.final_census),
                 "spread: packed-CSR replica ended in a different state");
    report.add_layer("graph.decode_share",
                     (untraced.wall_s - csr.wall_s) / untraced.wall_s, "ratio");
    set_ledger_split(report, "the untraced pass (packed-CSR replica split)",
                     {{"graph.decode", 1e3 * (untraced.wall_s - csr.wall_s)},
                      {"sim.stepping", 1e3 * csr.wall_s}});
  }
  std::uint64_t bytes = 0;
  const double decode_s = median_seconds(3, [&] { bytes = zg->validate_full(); });
  report.add_layer("graph.decode_gbps",
                   static_cast<double>(bytes) / decode_s * 1e-9, "GB/s");
  report.add_layer("io.graph_load_ms", median(load_samples), "ms");
  report.info.set("trace_events", static_cast<double>(events.size()));
  write_chrome_trace(events, options.out + "/trace-spread.json");
}

}  // namespace perfbench
