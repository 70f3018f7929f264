// plan: the `rumorctl plan` computation at 10, 60 and 200 degree groups
// and the `rumorctl plan-sweep` budget frontier at 10 groups, with
// rumorctl's defaults, on one thread. The seed draws the degree
// histogram (71,367 nodes) from the calibrated Digg surrogate pmf.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "control/batch_sweep.hpp"
#include "control/costate.hpp"
#include "control/fbsweep.hpp"
#include "control/objective.hpp"
#include "core/profile.hpp"
#include "core/schedule.hpp"
#include "core/sir_model.hpp"
#include "data/digg.hpp"
#include "kern/kern.hpp"
#include "ode/integrate.hpp"
#include "ode/steppers.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rumor;

constexpr std::size_t kSizes[] = {10, 60, 200};
constexpr std::size_t kSweepGroups = 10;
constexpr std::size_t kBudgets = 7;
// Nodes drawn for the degree histogram. Far more than Digg's 71,367, so
// the coarsened profiles — and the solver's iteration counts — barely
// move between seeds.
constexpr std::size_t kSampleNodes = 20'000'000;

// rumorctl plan / plan-sweep defaults.
constexpr double kTf = 60.0;
constexpr double kI0 = 0.2;
constexpr double kAlpha = 0.05;

core::ModelParams plan_params() {
  core::ModelParams params;
  params.alpha = kAlpha;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return params;
}

control::SweepOptions plan_options() {
  control::SweepOptions sweep;
  sweep.grid_points = static_cast<std::size_t>(kTf * 5.0) + 1;
  sweep.substeps = 20;
  sweep.epsilon1_max = 0.7;
  sweep.epsilon2_max = 0.7;
  sweep.max_iterations = 800;
  sweep.j_tolerance = 1e-6;
  return sweep;
}

control::CostParams plan_cost() {
  control::CostParams cost;
  cost.c1 = 5.0;
  cost.c2 = 10.0;
  return cost;
}

struct PlanCase {
  std::size_t groups;
  core::SirNetworkModel model;
  ode::State y0;
  double target;
};

struct SweepCase {
  core::NetworkProfile profile;
  std::vector<control::BatchProblem> problems;
  control::SweepOptions options;
};

struct Inputs {
  std::vector<PlanCase> plans;
  std::unique_ptr<SweepCase> sweep;
};

core::NetworkProfile load_profile(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "plan: cannot open " + path);
  std::vector<std::pair<std::size_t, std::size_t>> counts;
  std::size_t degree = 0, count = 0;
  while (in >> degree >> count) counts.emplace_back(degree, count);
  return core::NetworkProfile::from_histogram(
      graph::DegreeHistogram::from_counts(std::move(counts)));
}

// Program set-up: read the histogram, coarsen it and build the models,
// initial states and problem lists — what rumorctl does before solving.
Inputs set_up(const std::string& dir) {
  const core::NetworkProfile full = load_profile(dir + "/profile.txt");
  Inputs inputs;
  for (const std::size_t groups : kSizes) {
    core::SirNetworkModel model(full.coarsened(groups), plan_params(),
                                core::make_constant_control(0.0, 0.0));
    ode::State y0 = model.initial_state(kI0);
    inputs.plans.push_back({groups, std::move(model), std::move(y0),
                            1e-3 * static_cast<double>(groups)});
  }
  auto sweep = std::make_unique<SweepCase>(
      SweepCase{full.coarsened(kSweepGroups), {}, plan_options()});
  const core::SirNetworkModel model(sweep->profile, plan_params(),
                                    core::make_constant_control(0.0, 0.0));
  control::CostParams cost = plan_cost();
  cost.terminal_weight = 50.0;
  for (const double budget : util::linspace(0.1, 0.7, kBudgets)) {
    control::BatchProblem problem;
    problem.params = plan_params();
    problem.cost = cost;
    problem.y0 = model.initial_state(kI0);
    problem.epsilon1_max = budget;
    problem.epsilon2_max = budget;
    sweep->problems.push_back(std::move(problem));
  }
  inputs.sweep = std::move(sweep);
  return inputs;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The batch equivalence contract (control/batch_sweep.hpp): a lane
// reproduces its sequential solve bitwise under the scalar backend and
// to 1e-6 under SIMD.
bool lane_matches_sequential(const SweepCase& sweep,
                             const control::BatchSolveReport& lane,
                             const control::BatchProblem& problem) {
  if (lane.failed) return false;
  control::SweepOptions options = sweep.options;
  options.epsilon1_max = problem.epsilon1_max;
  options.epsilon2_max = problem.epsilon2_max;
  const core::SirNetworkModel model(sweep.profile, problem.params,
                                    core::make_constant_control(0.0, 0.0));
  const control::SweepResult seq = control::solve_optimal_control(
      model, problem.y0, kTf, problem.cost, options);
  const control::SweepResult& got = lane.result;
  if (kern::backend() == kern::Backend::kScalar) {
    const double a = seq.cost.total(), b = got.cost.total();
    return seq.iterations == got.iterations &&
           same_bits(seq.epsilon1, got.epsilon1) &&
           same_bits(seq.epsilon2, got.epsilon2) &&
           std::memcmp(&a, &b, sizeof a) == 0;
  }
  if (seq.epsilon1.size() != got.epsilon1.size()) return false;
  for (std::size_t k = 0; k < seq.epsilon1.size(); ++k) {
    if (std::abs(seq.epsilon1[k] - got.epsilon1[k]) > 1e-6 ||
        std::abs(seq.epsilon2[k] - got.epsilon2[k]) > 1e-6) {
      return false;
    }
  }
  return std::abs(seq.cost.total() - got.cost.total()) <=
         1e-6 * std::max(1.0, std::abs(seq.cost.total()));
}

// One pass: the three plans and the sweep.
struct PassTimes {
  std::vector<double> plan_s;  ///< per kSizes element
  double sweep_s = 0.0;

  PassSlots slots() const {
    return {sum(plan_s) + sweep_s, 1e3 * plan_s[0], 1e3 * plan_s[2],
            1e3 * sweep_s};
  }
};

// Per-solve layer split, measured from outside: one call of each piece
// of an FBSM iteration, through its public function, on the converged
// plan — multiplied by the iterations the solve ran.
struct PieceTimes {
  double forward_ms = 0.0;
  double costate_ms = 0.0;
  double knot_ms = 0.0;
  double cost_ms = 0.0;
};

PieceTimes time_pieces(const PlanCase& plan, const control::SweepResult& r) {
  const control::SweepOptions options = plan_options();
  const control::CostParams cost = plan_cost();
  core::SirNetworkModel work(plan.model.profile(), plan.model.params(),
                             r.control);
  ode::Rk4Stepper stepper;
  ode::FixedStepOptions fixed;
  fixed.dt = (r.grid[1] - r.grid[0]) / static_cast<double>(options.substeps);
  fixed.record_every = options.substeps;
  const std::size_t n = plan.model.num_groups();
  const std::size_t reps = 5;
  PieceTimes t;
  ode::Trajectory state;
  t.forward_ms = 1e3 * median_seconds(reps, [&] {
    state = ode::integrate_fixed(work, stepper, plan.y0, 0.0, kTf, fixed);
  });
  const control::BackwardCostateSystem adjoint(work, state, *r.control, cost,
                                               kTf);
  ode::Trajectory backward;
  t.costate_ms = 1e3 * median_seconds(reps, [&] {
    backward = ode::integrate_fixed(adjoint, stepper,
                                    adjoint.terminal_costate(), 0.0, kTf,
                                    fixed);
  });
  t.knot_ms = 1e3 * median_seconds(reps, [&] {
    ode::Trajectory::Cursor state_cursor(r.state);
    ode::Trajectory::Cursor costate_cursor(r.costate);
    ode::State y(2 * n), w(2 * n);
    for (const double t_k : r.grid) {
      state_cursor.at_into(t_k, y);
      costate_cursor.at_into(t_k, w);
      control::stationary_controls(control::knot_products(y, w, n), cost);
    }
  });
  t.cost_ms = 1e3 * median_seconds(reps, [&] {
    control::evaluate_cost(work, r.state, *r.control, cost);
  });
  return t;
}

// Fused RK4 step kernels through kern::ops(), ns per call.
double kernel_ns(bool costate, std::size_t n) {
  const kern::Ops& ops = kern::ops();
  std::vector<double> y(2 * n, 0.01), w(2 * n, 0.5), out(2 * n);
  std::vector<double> lambda(n, 1.0), phi(n, 1.0 / static_cast<double>(n));
  std::vector<double> scratch(kern::fused_scratch_doubles(n));
  const double e1[3] = {0.1, 0.1, 0.1}, e2[3] = {0.2, 0.2, 0.2};
  const double theta[3] = {0.05, 0.05, 0.05};
  for (std::size_t i = 0; i < n; ++i) y[i] = 0.9;
  const std::size_t calls = std::max<std::size_t>(2000, 400000 / n);
  return 1e9 / static_cast<double>(calls) * median_seconds(5, [&] {
    for (std::size_t c = 0; c < calls; ++c) {
      if (costate) {
        ops.costate_rk4_step(w.data(), n, y.data(), y.data(), y.data(),
                             lambda.data(), phi.data(), theta, e1, e2, 5.0,
                             10.0, 1e-3, false, out.data(), scratch.data());
      } else {
        ops.sir_rk4_step(y.data(), n, 24.0, 0.05, e1, e2, lambda.data(),
                         phi.data(), 1e-3, out.data(), scratch.data());
      }
    }
  });
}

}  // namespace

void prepare_plan(const Options& options) {
  // Sample the Digg2009 surrogate degree distribution: the seed varies
  // the finite-sample histogram, not its calibrated shape.
  const data::DiggTargets targets;
  const data::DiggCalibration calibration = data::calibrate(targets);
  const std::vector<double> pmf = data::degree_pmf(calibration, targets);
  std::vector<double> cdf(pmf.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) cdf[i] = acc += pmf[i];
  util::Xoshiro256 rng(options.seed);
  std::vector<std::size_t> counts(pmf.size(), 0);
  for (std::size_t v = 0; v < kSampleNodes; ++v) {
    const double u = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    ++counts[std::min<std::size_t>(it - cdf.begin(), pmf.size() - 1)];
  }
  std::ofstream out(options.dir + "/profile.txt");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) out << targets.min_degree + i << ' ' << counts[i] << '\n';
  }
  util::require(out.good(), "plan: cannot write the profile");
}

void run_plan(const Options& options, Report& report) {
  util::set_num_threads(1);
  report.info = attribution(1);

  // Set-up samples are spread over the run (a batch before each round of
  // the four operations), so they see the same mix of quiet and
  // contended windows and vCPUs as the operations.
  std::vector<double> setup_samples;
  const auto set_up_batch = [&] {
    for (int r = 0; r < 25; ++r) {
      const auto start = Clock::now();
      const Inputs discarded = set_up(options.dir);
      setup_samples.push_back(seconds_since(start));
    }
  };
  set_up_batch();
  const Inputs inputs = set_up(options.dir);
  const SweepCase& sweep = *inputs.sweep;

  std::vector<control::BatchSolveReport> last_sweep;
  std::vector<PassTimes> passes;
  std::vector<std::uint64_t> iterations(std::size(kSizes), 0);
  std::vector<std::uint64_t> rhs_evals(std::size(kSizes), 0);
  std::vector<control::SweepResult> plans(std::size(kSizes));

  // The four timed operations: the plans at kSizes[0..2], then the sweep.
  constexpr std::size_t kOps = std::size(kSizes) + 1;
  const auto solve_op = [&](std::size_t op) {
    if (op < inputs.plans.size()) {
      const PlanCase& plan = inputs.plans[op];
      const std::uint64_t it0 = counter_value("fbsm.iterations");
      const std::uint64_t rhs0 = counter_value("ode.rhs_evals");
      const auto start = Clock::now();
      {
        const Span span("control:solve_with_terminal_target");
        plans[op] = control::solve_with_terminal_target(
            plan.model, plan.y0, kTf, plan_cost(), plan.target,
            plan_options());
      }
      const double seconds = seconds_since(start);
      iterations[op] = counter_value("fbsm.iterations") - it0;
      rhs_evals[op] = counter_value("ode.rhs_evals") - rhs0;
      report.attempt(1);
      const double terminal =
          plan.model.total_infected(plans[op].state.back_state());
      report.check(plans[op].converged && terminal <= plan.target,
                   "plan n=" + std::to_string(plan.groups) +
                       " did not converge to its terminal target");
      return seconds;
    }
    const auto start = Clock::now();
    {
      const Span span("control:solve_optimal_control_batch");
      last_sweep = control::solve_optimal_control_batch(
          sweep.profile, sweep.problems, kTf, sweep.options);
    }
    const double seconds = seconds_since(start);
    for (std::size_t b = 0; b < last_sweep.size(); ++b) {
      report.attempt(1);
      report.check(!last_sweep[b].failed && last_sweep[b].result.converged,
                   "plan-sweep lane " + std::to_string(b) + " failed");
    }
    return seconds;
  };
  const auto one_pass = [&] {
    const Span root("bench:pass");
    PassTimes t;
    for (std::size_t op = 0; op + 1 < kOps; ++op) {
      t.plan_s.push_back(solve_op(op));
    }
    t.sweep_s = solve_op(kOps - 1);
    passes.push_back(std::move(t));
  };

  std::vector<SpanEvent> events;
  double traced_t0 = 0.0, traced_t1 = 0.0;
  // Untraced: the operations run in rounds, each timed on its own and
  // each on another vCPU, until the budget is spent — stopping before any
  // operation, not only at the end of a round, so a run holds as many
  // samples of each as fit (at least two rounds).
  std::vector<std::vector<double>> op_s(kOps);
  if (options.trace) {
    one_pass();  // untraced reference for the tracing overhead
    const CounterWindow counters;
    trace_begin();
    traced_t0 = trace_now_ms();
    one_pass();
    traced_t1 = trace_now_ms();
    counters.finish(report);
  } else {
    // n=10 runs twice a round: it is the shortest operation and the one
    // the host's load moves most, so the extra samples go to it.
    constexpr std::size_t kRound[] = {0, 1, 2, 0, 3};
    const auto start = Clock::now();
    for (std::size_t n = 0;; ++n) {
      const std::size_t slot = n % std::size(kRound);
      const std::size_t op = kRound[slot];
      const double longest =
          op_s[op].empty()
              ? 0.0
              : *std::max_element(op_s[op].begin(), op_s[op].end());
      if (n >= 2 * std::size(kRound) &&
          seconds_since(start) + 0.75 * longest > options.seconds) {
        break;
      }
      // Shifted by one each round, so every slot visits every vCPU.
      move_to_cpu(slot + n / std::size(kRound));
      if (slot == 0 && n != 0) set_up_batch();
      op_s[op].push_back(solve_op(op));
    }
  }

  // Sweep lanes against their sequential solves: all lanes in the traced
  // run, one seed-chosen lane otherwise (outside the timed operations).
  for (std::size_t b = 0; b < last_sweep.size(); ++b) {
    if (!options.trace && b != options.seed % last_sweep.size()) continue;
    report.attempt(1);
    report.check(lane_matches_sequential(sweep, last_sweep[b],
                                         sweep.problems[b]),
                 "plan-sweep lane " + std::to_string(b) +
                     " differs from its sequential solve");
  }
  if (!options.trace) {
    std::vector<double> typical(kOps);
    io::JsonValue samples = io::JsonValue::make_array();
    for (std::size_t op = 0; op < kOps; ++op) {
      typical[op] = lower_quartile(op_s[op]);
      io::JsonValue each = io::JsonValue::make_array();
      for (const double v : op_s[op]) each.push_back(v);
      samples.push_back(std::move(each));
    }
    // wall_s: one plan at each size plus the sweep, each at its own
    // run-level value.
    add_e2e_metrics(report, setup_samples,
                    PassSlots{sum(typical), 1e3 * typical[0],
                              1e3 * typical[2], 1e3 * typical[3]});
    report.add_named("plan.n10_s", typical[0], "s");
    report.add_named("plan.n60_s", typical[1], "s");
    report.add_named("plan.n200_s", typical[2], "s");
    report.add_named("plan.sweep_s", typical[3], "s");
    report.info.set("op_samples_n10_n60_n200_sweep_s", std::move(samples));
    io::JsonValue iters = io::JsonValue::make_array();
    for (const std::uint64_t k : iterations) iters.push_back(static_cast<double>(k));
    report.info.set("fbsm_iterations_n10_n60_n200", std::move(iters));
    return;
  }

  // ---- traced run: per-layer metrics --------------------------------
  events = trace_end();
  add_overhead(report, passes[0].slots(), passes[1].slots());

  std::vector<std::uint32_t> main_tid;
  for (const SpanEvent& e : events) {
    if (e.name == "bench:pass") main_tid = {e.tid};
  }
  report.ledger = build_ledger(events, main_tid, traced_t0, traced_t1);

  // Replica split of each converged plan (after the traced window).
  PieceTimes total;
  double solve_ms = 0.0;
  std::uint64_t evals = 0;
  for (std::size_t i = 0; i < inputs.plans.size(); ++i) {
    const PieceTimes p = time_pieces(inputs.plans[i], plans[i]);
    const auto k = static_cast<double>(iterations[i]);
    total.forward_ms += k * p.forward_ms;
    total.costate_ms += k * p.costate_ms;
    total.knot_ms += k * p.knot_ms;
    total.cost_ms += k * p.cost_ms;
    solve_ms += 1e3 * passes[1].plan_s[i];
    evals += rhs_evals[i];
  }
  // The solve spans are all `control`; the replica split breaks their
  // self time down by the layer each piece belongs to.
  const double unattributed = solve_ms - total.forward_ms - total.costate_ms -
                              total.knot_ms - total.cost_ms;
  set_ledger_split(report, "the three plan solves (replica split)",
                   {{"ode.forward", total.forward_ms},
                    {"control.costate", total.costate_ms},
                    {"control.knot", total.knot_ms},
                    {"control.cost", total.cost_ms},
                    {"control.unattributed", unattributed}});
  report.add_layer("control.forward_ms", total.forward_ms, "ms");
  report.add_layer("control.costate_ms", total.costate_ms, "ms");
  report.add_layer("control.knot_ms", total.knot_ms, "ms");
  report.add_layer("control.cost_ms", total.cost_ms, "ms");
  report.add_layer("control.unattributed_ms", unattributed, "ms");
  report.add_layer("ode.ns_per_rhs_eval",
                   evals == 0 ? 0.0 : 1e6 * solve_ms / static_cast<double>(evals),
                   "ns");
  for (const std::size_t n : kSizes) {
    const std::string suffix = "_n" + std::to_string(n);
    report.add_layer("kern.sir_rk4_step_ns" + suffix, kernel_ns(false, n), "ns");
    report.add_layer("kern.costate_rk4_step_ns" + suffix, kernel_ns(true, n),
                     "ns");
    // Bytes the kernel's argument arrays span per call (computed, not
    // measured): y, λ, ϕ, y_next for the state step; w, three states,
    // λ, ϕ/⟨k⟩, w_next for the costate step.
    report.add_layer("kern.sir_rk4_step_bytes" + suffix,
                     static_cast<double>(48 * n), "B_computed");
    report.add_layer("kern.costate_rk4_step_bytes" + suffix,
                     static_cast<double>(96 * n), "B_computed");
  }
  // Lockstep retirement waste: useful lane-iterations over lanes × the
  // longest lane of each chunk.
  const std::size_t lanes = kern::preferred_batch_lanes();
  double useful = 0.0, paid = 0.0;
  for (std::size_t lo = 0; lo < last_sweep.size(); lo += lanes) {
    std::size_t longest = 0;
    for (std::size_t b = lo; b < std::min(lo + lanes, last_sweep.size()); ++b) {
      useful += static_cast<double>(last_sweep[b].result.iterations);
      longest = std::max(longest, last_sweep[b].result.iterations);
    }
    paid += static_cast<double>(lanes * longest);
  }
  report.add_layer("batch.lane_utilization", paid == 0.0 ? 0.0 : useful / paid,
                   "ratio");
  report.info.set("trace_events", static_cast<double>(events.size()));
  write_chrome_trace(events, options.out + "/trace-plan.json");
}

}  // namespace perfbench
