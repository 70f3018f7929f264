// perfbench — end-to-end benchmark of three user paths.
//
//   perfbench prepare --workload W --seed N --dir D
//       write the seeded inputs of workload W into directory D
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 --out O
//       measure W on the inputs in D for about S seconds and print the
//       report as one JSON object on the last line of stdout; a traced
//       run (--trace 1) reports per-layer metrics and writes its Chrome
//       trace into O
//
// Workloads: plan, spread, serve (see README.md). perfbench/run.py
// builds this binary and runs both steps.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

namespace io = rumor::io;
using perfbench::Options;
using perfbench::Report;

struct Workload {
  void (*prepare)(const Options&);
  void (*run)(const Options&, Report&);
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"plan", {perfbench::prepare_plan, perfbench::run_plan}},
      {"spread", {perfbench::prepare_spread, perfbench::run_spread}},
      {"serve", {perfbench::prepare_serve, perfbench::run_serve}},
  };
  return table;
}

io::JsonValue metrics_json(const std::vector<perfbench::Metric>& metrics) {
  io::JsonValue out = io::JsonValue::make_object();
  for (const perfbench::Metric& m : metrics) {
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    out.set(m.name, std::move(entry));
  }
  return out;
}

// The repository's layers, as named in the per-layer ledger metrics.
// `stream` has no entry: no workload's driving thread calls into it
// (serve's stream jobs run on its scheduler workers).
constexpr const char* kLayers[] = {"kern",  "ode", "core", "control",
                                   "graph", "io",  "sim",  "serve",
                                   "util",  "obs"};

// Ledger totals as per-layer metrics: self ms per layer (0 for a layer
// with no span on the ledger's threads), unattributed and wall.
void add_ledger_metrics(Report& report) {
  const io::JsonValue* self = report.ledger.find("self_ms");
  if (self == nullptr) return;
  for (const char* layer : kLayers) {
    report.add_layer(std::string("ledger.") + layer + "_ms",
                     self->number_or(layer, 0.0), "ms");
  }
  report.add_layer("ledger.unattributed_ms",
                   report.ledger.number_or("unattributed_ms", 0.0), "ms");
  report.add_layer("ledger.wall_ms", report.ledger.number_or("wall_ms", 0.0),
                   "ms");
}

io::JsonValue report_json(const Options& options, const Report& report) {
  io::JsonValue out = io::JsonValue::make_object();
  out.set("workload", options.workload);
  out.set("seed", static_cast<double>(options.seed));
  out.set("trace", options.trace);
  out.set("attempted", static_cast<double>(report.attempted));
  out.set("failed", static_cast<double>(report.failed));
  out.set("error_rate",
          report.attempted == 0 ? 1.0
                                : static_cast<double>(report.failed) /
                                      static_cast<double>(report.attempted));
  io::JsonValue failures = io::JsonValue::make_array();
  for (const std::string& f : report.failures) failures.push_back(f);
  out.set("failures", std::move(failures));
  out.set("info", report.info);
  out.set("e2e", metrics_json(report.e2e));
  out.set("named", metrics_json(report.named));
  std::vector<perfbench::Metric> layers;
  for (const auto& [name, metric] : report.layers) layers.push_back(metric);
  out.set("layers", metrics_json(layers));
  out.set("ledger", report.ledger);
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench {prepare|run} --workload W --seed N "
               "--dir D [--seconds S --trace 0|1 --out O]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  Options options;
  options.workload = args["workload"];
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  if (args.count("seconds")) options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args["trace"] == "1";
  options.dir = args["dir"];
  options.out = args.count("out") ? args["out"] : args["dir"];
  const auto it = workloads().find(options.workload);
  if (it == workloads().end() || options.dir.empty() ||
      (command != "prepare" && command != "run")) {
    return usage();
  }
  rumor::util::set_log_level(rumor::util::LogLevel::kWarn);
  try {
    if (command == "prepare") {
      it->second.prepare(options);
      return 0;
    }
    Report report;
    it->second.run(options, report);
    if (options.trace) add_ledger_metrics(report);
    std::printf("%s\n", report_json(options, report).dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s %s: %s\n", command.c_str(),
                 options.workload.c_str(), e.what());
    return 1;
  }
}
