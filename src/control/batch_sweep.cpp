#include "control/batch_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/batch_sim.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace rumor::control {

namespace {

// Same registry entries the sequential driver records to (find-or-
// create returns the identical handles), plus a batch-solve count.
struct BatchMetrics {
  obs::Counter& fbsm_iterations;
  obs::Counter& pg_iterations;
  obs::Counter& pg_accepts;
  obs::Counter& pg_backtracks;
  obs::Counter& batch_solves;
  obs::Gauge& update_norm;
};

BatchMetrics& batch_metrics() {
  static BatchMetrics* const m = [] {
    obs::Registry& r = obs::metrics();
    return new BatchMetrics{r.counter("fbsm.iterations"),
                            r.counter("pg.iterations"),
                            r.counter("pg.accepts"),
                            r.counter("pg.backtracks"),
                            r.counter("control.batch_solves"),
                            r.gauge("control.update_norm")};
  }();
  return *m;
}

constexpr const char* kInvalidForward =
    "solve_optimal_control_batch: forward pass produced an invalid state "
    "(non-finite or negative infected density) — the explicit integrator "
    "is unstable at this step size; increase substeps or grid_points";
constexpr const char* kNonFiniteStationary =
    "solve_optimal_control_batch: non-finite stationary control — the "
    "forward or backward pass diverged; increase substeps or grid_points";

// Per-lane piecewise-linear control sampling on the SHARED grid — the
// exact arithmetic of PiecewiseLinearControl::epsilons, with one
// segment lookup serving every lane and a walking hint for the
// monotone query sequences each pass produces (the hint only
// accelerates; it never changes the result).
class KnotSampler {
 public:
  // e1/e2 are knot-major arrays: knot k's per-lane values are the
  // contiguous block e[k*lanes .. k*lanes + lanes), so the lane loop
  // below is unit-stride (auto-vectorizable) in every branch.
  KnotSampler(const std::vector<double>& grid, const double* e1,
              const double* e2, std::size_t lanes)
      : grid_(&grid), e1_(e1), e2_(e2), m_(grid.size()), lanes_(lanes) {}

  void sample(double t, double* o1, double* o2) {
    const std::vector<double>& grid = *grid_;
    if (t <= grid.front()) {
      std::copy(e1_, e1_ + lanes_, o1);
      std::copy(e2_, e2_ + lanes_, o2);
      return;
    }
    if (t >= grid.back()) {
      std::copy(e1_ + (m_ - 1) * lanes_, e1_ + m_ * lanes_, o1);
      std::copy(e2_ + (m_ - 1) * lanes_, e2_ + m_ * lanes_, o2);
      return;
    }
    const std::size_t hi = upper_knot(t);
    const std::size_t lo = hi - 1;
    const double w = (t - grid[lo]) / (grid[hi] - grid[lo]);
    const double* lo1 = e1_ + lo * lanes_;
    const double* hi1 = e1_ + hi * lanes_;
    const double* lo2 = e2_ + lo * lanes_;
    const double* hi2 = e2_ + hi * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      o1[l] = (1.0 - w) * lo1[l] + w * hi1[l];
      o2[l] = (1.0 - w) * lo2[l] + w * hi2[l];
    }
  }

 private:
  std::size_t upper_knot(double t) {
    const std::vector<double>& grid = *grid_;
    std::size_t hi = hint_;
    if (hi < 1 || hi > m_ - 1) hi = 1;
    while (hi > 1 && grid[hi - 1] > t) --hi;
    while (hi + 1 < m_ && grid[hi] <= t) ++hi;
    hint_ = hi;
    return hi;
  }

  const std::vector<double>* grid_;
  const double* e1_;
  const double* e2_;
  std::size_t m_;
  std::size_t lanes_;
  std::size_t hint_ = 1;
};

// One chunk of lanes solved in lockstep. Every buffer is sized once in
// the constructor and reused across iterations; the iteration loop
// performs no allocation after the first forward pass fills the
// trajectory capacities.
//
// The chunk's R real problems occupy lanes [0, R); the storage holds
// L = kern::padded_lanes(R) lanes, and lanes [R, L) carry copies of the
// last real problem so the batched kernels always see whole vectors.
// Those padding lanes are born retired: never active, never counted,
// never reported.
class ChunkSolver {
 public:
  ChunkSolver(const core::NetworkProfile& profile,
              std::span<const BatchProblem> problems, double tf,
              const SweepOptions& options,
              std::span<BatchSolveReport> reports)
      : problems_(problems),
        reports_(reports),
        opt_(&options),
        tf_(tf),
        n_(profile.num_groups()),
        m_(options.grid_points),
        real_(problems.size()),
        L_(kern::padded_lanes(real_)),
        grid_(util::linspace(0.0, tf, m_)),
        diagonal_(options.diagonal_costate),
        ops_(&kern::ops()),
        model_(profile, lane_params(problems, L_)) {
    const double dt = grid_[1] - grid_[0];
    step_dt_ = dt / static_cast<double>(opt_->substeps);
    record_every_ = opt_->substeps;

    const std::size_t flat = 2 * n_ * L_;
    y0_.resize(flat);
    c1_.resize(L_);
    c2_.resize(L_);
    wterm_.resize(L_);
    e1max_.resize(L_);
    e2max_.resize(L_);
    e1_.resize(L_ * m_);
    e2_.resize(L_ * m_);
    for (std::size_t l = 0; l < L_; ++l) {
      const BatchProblem& p = problems[std::min(l, real_ - 1)];
      ode::scatter_lane(p.y0.data(), 2 * n_, L_, l, y0_.data());
      c1_[l] = p.cost.c1;
      c2_[l] = p.cost.c2;
      wterm_[l] = p.cost.terminal_weight;
      e1max_[l] = p.epsilon1_max >= 0.0 ? p.epsilon1_max : opt_->epsilon1_max;
      e2max_[l] = p.epsilon2_max >= 0.0 ? p.epsilon2_max : opt_->epsilon2_max;
      const double guess =
          p.initial_guess >= 0.0 ? p.initial_guess : opt_->initial_guess;
      const double g1 = util::clamp(guess, 0.0, e1max_[l]);
      const double g2 = util::clamp(guess, 0.0, e2max_[l]);
      for (std::size_t k = 0; k < m_; ++k) {
        e1_[k * L_ + l] = g1;
        e2_[k * L_ + l] = g2;
      }
    }
    for (BatchSolveReport& report : reports_) report.result.grid = grid_;
    best_e1_ = e1_;
    best_e2_ = e2_;
    best_j_.assign(L_, std::numeric_limits<double>::infinity());
    relax_.assign(L_, opt_->relaxation);
    streak_.assign(L_, 0);
    active_.assign(L_, 0);
    std::fill_n(active_.begin(), real_, 1);
    searching_.assign(L_, 0);
    num_active_ = real_;

    ws_.resize(flat, kern::batch_scratch_doubles(n_, L_));
    e1_stage_.resize(3 * L_);
    e2_stage_.resize(3 * L_);
    theta_stage_.resize(3 * L_);
    carry_theta_.resize(L_);
    carry_e1_.resize(L_);
    carry_e2_.resize(L_);
    ys0_.resize(flat);
    ysmid_.resize(flat);
    ys1_.resize(flat);
    yk_.resize(flat);
    wk_.resize(flat);
    knot4_.resize(4 * L_);
    ev1_.resize(L_);
    ev2_.resize(L_);
    s2_.resize(L_);
    i2_.resize(L_);
    run_j_.resize(L_);
    term_j_.resize(L_);
    update_.resize(L_);
    objective_.resize(L_);
    decrease_.resize(L_);
    pg_step_.resize(L_);
    lane_state_.resize(2 * n_);
  }

  void run() {
    if (opt_->algorithm == SweepAlgorithm::kProjectedGradient) {
      run_pg();
    } else {
      run_fbsm();
    }
  }

 private:
  static std::vector<core::ModelParams> lane_params(
      std::span<const BatchProblem> problems, std::size_t lanes) {
    std::vector<core::ModelParams> out;
    out.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      out.push_back(problems[std::min(l, problems.size() - 1)].params);
    }
    return out;
  }

  void retire(std::size_t l) {
    if (active_[l]) {
      active_[l] = 0;
      --num_active_;
    }
  }

  void fail_lane(std::size_t l, const char* message) {
    reports_[l].failed = true;
    reports_[l].error = message;
    retire(l);
  }

  // Batched forward pass under lane-major knot controls. The stage
  // sampling replicates the sequential fused step, which reads the
  // schedule at t, t + h/2, t + h.
  void forward_pass(const double* e1, const double* e2,
                    ode::BatchTrajectory& out) {
    KnotSampler sched(grid_, e1, e2, L_);
    core::integrate_batch_fixed(
        model_, y0_.data(), 0.0, tf_, step_dt_, record_every_,
        [&](double t, double h, double* s1, double* s2) {
          sched.sample(t, s1, s2);
          sched.sample(t + 0.5 * h, s1 + L_, s2 + L_);
          sched.sample(t + h, s1 + 2 * L_, s2 + 2 * L_);
        },
        ws_, e1_stage_.data(), e2_stage_.data(), out);
  }

  // check_forward_pass, per lane.
  bool lane_state_valid(const ode::BatchTrajectory& traj,
                        std::size_t l) const {
    const double* y = traj.back_sample();
    for (std::size_t i = 0; i < 2 * n_; ++i) {
      const double v = y[i * L_ + l];
      if (!std::isfinite(v) || (i >= n_ && v < -1e-6)) return false;
    }
    return true;
  }

  // Batched BackwardCostateSystem + the fixed-step loop: the same
  // reversed-clock stage sampling (with the previous step's last stage
  // carried into the next step's first) and the same record rule,
  // followed by the re-basing to forward time. Fills backward_ and
  // costate_.
  void backward_pass(const ode::BatchTrajectory& state, const double* e1,
                     const double* e2) {
    const std::size_t flat = 2 * n_ * L_;
    KnotSampler sched(grid_, e1, e2, L_);
    std::size_t hint = 1;

    double* w0 = ws_.y.data();
    std::fill(w0, w0 + flat, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      for (std::size_t l = 0; l < L_; ++l) w0[(n_ + j) * L_ + l] = wterm_[l];
    }
    backward_.reset(2 * n_, L_);
    backward_.push_back(0.0, w0);

    double carry_t_end = std::numeric_limits<double>::quiet_NaN();
    const auto sample_stage = [&](double t, double* y_flat, std::size_t k) {
      const ode::BatchTrajectory::Segment seg = state.locate(t, hint);
      hint = seg.hi;
      state.sample_at(seg, t, y_flat);
      sched.sample(t, e1_stage_.data() + k * L_, e2_stage_.data() + k * L_);
      model_.theta_into(y_flat, theta_stage_.data() + k * L_);
    };

    double s = 0.0;
    std::size_t step_index = 0;
    const double t_eps = 1e-9 * step_dt_;
    while (s < tf_ - t_eps) {
      const double h = std::min(step_dt_, tf_ - s);
      const double t0 = tf_ - s;
      if (t0 == carry_t_end) {
        // This step's first stage is the previous step's last (the
        // fixed grid advances s by exactly h): reuse the sample.
        ys0_.swap(ys1_);
        std::copy(carry_theta_.begin(), carry_theta_.end(),
                  theta_stage_.begin());
        std::copy(carry_e1_.begin(), carry_e1_.end(), e1_stage_.begin());
        std::copy(carry_e2_.begin(), carry_e2_.end(), e2_stage_.begin());
      } else {
        sample_stage(t0, ys0_.data(), 0);
      }
      sample_stage(tf_ - (s + 0.5 * h), ysmid_.data(), 1);
      sample_stage(tf_ - (s + h), ys1_.data(), 2);
      carry_t_end = tf_ - (s + h);
      std::copy(theta_stage_.begin() + 2 * L_, theta_stage_.end(),
                carry_theta_.begin());
      std::copy(e1_stage_.begin() + 2 * L_, e1_stage_.end(),
                carry_e1_.begin());
      std::copy(e2_stage_.begin() + 2 * L_, e2_stage_.end(),
                carry_e2_.begin());

      ops_->batch_costate_rk4_step(
          ws_.y.data(), n_, L_, ys0_.data(), ysmid_.data(), ys1_.data(),
          model_.lambdas(), model_.phis_over_k(), theta_stage_.data(),
          e1_stage_.data(), e2_stage_.data(), c1_.data(), c2_.data(), h,
          diagonal_, ws_.y_next.data(), ws_.scratch.data());
      s += h;
      ws_.y.swap(ws_.y_next);
      ++step_index;
      const bool is_last = s >= tf_ - t_eps;
      if (is_last || step_index % record_every_ == 0) {
        backward_.push_back(s, ws_.y.data());
      }
    }

    // reverse_costate_into: forward-time view, duplicate knots skipped.
    costate_.reset(2 * n_, L_);
    for (std::size_t k = backward_.size(); k-- > 0;) {
      const double t = tf_ - backward_.times()[k];
      if (!costate_.empty() && t <= costate_.back_time()) continue;
      costate_.push_back(t, backward_.sample(k));
    }
  }

  // Batched evaluate_cost: per-lane running and terminal parts.
  void evaluate(const ode::BatchTrajectory& traj, const double* e1,
                const double* e2, double* running, double* terminal) {
    const std::size_t count = traj.size();
    KnotSampler sched(grid_, e1, e2, L_);
    integrand_.resize(count * L_);
    for (std::size_t k = 0; k < count; ++k) {
      sched.sample(traj.times()[k], ev1_.data(), ev2_.data());
      const double* y = traj.sample(k);
      ops_->batch_dot(y, y, n_, L_, s2_.data());
      ops_->batch_dot(y + n_ * L_, y + n_ * L_, n_, L_, i2_.data());
      for (std::size_t l = 0; l < L_; ++l) {
        integrand_[k * L_ + l] = c1_[l] * ev1_[l] * ev1_[l] * s2_[l] +
                                 c2_[l] * ev2_[l] * ev2_[l] * i2_[l];
      }
    }
    ops_->batch_trapezoid(traj.times().data(), integrand_.data(), count, L_,
                          running);
    const double* yb = traj.back_sample();
    for (std::size_t l = 0; l < L_; ++l) {
      double total = 0.0;
      for (std::size_t j = 0; j < n_; ++j) total += yb[(n_ + j) * L_ + l];
      terminal[l] = wterm_[l] * total;
    }
  }

  // Visit every grid knot in time order with the 4×L contraction block
  // {ΣψS, ΣS², ΣφI, ΣI²} (component-major) of that knot.
  template <typename Fn>
  void for_each_knot(const ode::BatchTrajectory& state,
                     const ode::BatchTrajectory& costate, Fn&& fn) {
    std::size_t hint_y = 1;
    std::size_t hint_w = 1;
    for (std::size_t k = 0; k < m_; ++k) {
      const double t = grid_[k];
      const ode::BatchTrajectory::Segment sy = state.locate(t, hint_y);
      hint_y = sy.hi;
      state.sample_at(sy, t, yk_.data());
      const ode::BatchTrajectory::Segment sw = costate.locate(t, hint_w);
      hint_w = sw.hi;
      costate.sample_at(sw, t, wk_.data());
      ops_->batch_knot4(yk_.data(), yk_.data() + n_ * L_, wk_.data(),
                        wk_.data() + n_ * L_, n_, L_, knot4_.data());
      fn(k, knot4_.data());
    }
  }

  void extract_lane_trajectory(const ode::BatchTrajectory& bt,
                               std::size_t lane, ode::Trajectory& out) {
    out.reset(2 * n_);
    for (std::size_t k = 0; k < bt.size(); ++k) {
      bt.extract_lane(k, lane, lane_state_.data());
      out.push_back(bt.times()[k], lane_state_);
    }
  }

  // Final batched pass under each lane's reported controls: state,
  // optionally a fresh costate (FBSM semantics; PG reports the last
  // iteration's costate), cost, and the per-lane extraction.
  void finalize(const double* fe1, const double* fe2,
                bool recompute_costate) {
    forward_pass(fe1, fe2, state_);
    if (recompute_costate) backward_pass(state_, fe1, fe2);
    evaluate(state_, fe1, fe2, run_j_.data(), term_j_.data());
    for (std::size_t l = 0; l < real_; ++l) {
      SweepResult& r = reports_[l].result;
      r.epsilon1.resize(m_);
      r.epsilon2.resize(m_);
      for (std::size_t k = 0; k < m_; ++k) {
        r.epsilon1[k] = fe1[k * L_ + l];
        r.epsilon2[k] = fe2[k * L_ + l];
      }
      r.control = std::make_shared<core::PiecewiseLinearControl>(
          grid_, r.epsilon1, r.epsilon2);
      extract_lane_trajectory(state_, l, r.state);
      if (!costate_.empty()) extract_lane_trajectory(costate_, l, r.costate);
      r.cost.running = run_j_[l];
      r.cost.terminal = term_j_[l];
    }
  }

  void run_fbsm() {
    for (std::size_t iter = 1;
         iter <= opt_->max_iterations && num_active_ > 0; ++iter) {
      batch_metrics().fbsm_iterations.add(num_active_);

      // (2) forward state pass under the current controls.
      forward_pass(e1_.data(), e2_.data(), state_);
      for (std::size_t l = 0; l < L_; ++l) {
        if (active_[l] && !lane_state_valid(state_, l)) {
          fail_lane(l, kInvalidForward);
        }
      }
      if (num_active_ == 0) break;
      for (std::size_t l = 0; l < L_; ++l) {
        if (active_[l]) reports_[l].result.iterations = iter;
      }

      // (3) backward costate pass.
      backward_pass(state_, e1_.data(), e2_.data());
      evaluate(state_, e1_.data(), e2_.data(), run_j_.data(), term_j_.data());

      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        const double objective = term_j_[l] + run_j_[l];
        auto& hist = reports_[l].result.objective_history;
        hist.push_back(objective);
        if (objective < best_j_[l]) {
          best_j_[l] = objective;
          for (std::size_t k = 0; k < m_; ++k) {
            best_e1_[k * L_ + l] = e1_[k * L_ + l];
            best_e2_[k * L_ + l] = e2_[k * L_ + l];
          }
        }
        // Adaptive damping (see the sequential driver for rationale).
        if (hist.size() >= 2 && hist.back() > hist[hist.size() - 2]) {
          relax_[l] = 0.5 * (1.0 + relax_[l]);
          streak_[l] = 0;
        } else if (++streak_[l] >= 10 && relax_[l] > opt_->relaxation) {
          relax_[l] =
              std::max(opt_->relaxation, 1.0 - 1.5 * (1.0 - relax_[l]));
          streak_[l] = 0;
        }
      }

      // (4) stationary controls, projected and relaxed, per lane.
      std::fill(update_.begin(), update_.end(), 0.0);
      for_each_knot(state_, costate_, [&](std::size_t k, const double* p) {
        for (std::size_t l = 0; l < L_; ++l) {
          if (!active_[l]) continue;
          const double psi_s = p[0 * L_ + l];
          const double s2 = p[1 * L_ + l];
          const double phi_i = p[2 * L_ + l];
          const double i2 = p[3 * L_ + l];
          const double stat1 =
              s2 > 0.0 ? psi_s / (2.0 * c1_[l] * s2) : 0.0;
          const double stat2 =
              i2 > 0.0 ? phi_i / (2.0 * c2_[l] * i2) : 0.0;
          if (!std::isfinite(stat1) || !std::isfinite(stat2)) {
            fail_lane(l, kNonFiniteStationary);
            continue;
          }
          const double new_e1 = util::clamp(stat1, 0.0, e1max_[l]);
          const double new_e2 = util::clamp(stat2, 0.0, e2max_[l]);
          double& cur1 = e1_[k * L_ + l];
          double& cur2 = e2_[k * L_ + l];
          const double relaxed_e1 =
              relax_[l] * cur1 + (1.0 - relax_[l]) * new_e1;
          const double relaxed_e2 =
              relax_[l] * cur2 + (1.0 - relax_[l]) * new_e2;
          update_[l] = std::max(update_[l], std::abs(relaxed_e1 - cur1));
          update_[l] = std::max(update_[l], std::abs(relaxed_e2 - cur2));
          cur1 = relaxed_e1;
          cur2 = relaxed_e2;
        }
      });

      double max_update = 0.0;
      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        reports_[l].result.final_update = update_[l];
        max_update = std::max(max_update, update_[l]);
        bool j_settled = false;
        const auto& history = reports_[l].result.objective_history;
        if (history.size() >= opt_->j_window) {
          double j_lo = history.back();
          double j_hi = history.back();
          for (std::size_t w = 0; w < opt_->j_window; ++w) {
            const double j = history[history.size() - 1 - w];
            j_lo = std::min(j_lo, j);
            j_hi = std::max(j_hi, j);
          }
          j_settled = (j_hi - j_lo) <=
                      opt_->j_tolerance * std::max(std::abs(j_hi), 1.0);
        }
        if (update_[l] < opt_->tolerance || j_settled) {
          reports_[l].result.converged = true;
          retire(l);
        }
      }
      batch_metrics().update_norm.set(max_update);
      if (iter == opt_->max_iterations && num_active_ > 0) {
        util::log_warn() << "solve_optimal_control_batch: " << num_active_
                         << " lane(s) not converged after " << iter
                         << " iterations";
      }
    }

    // Final pass under each lane's best controls.
    finalize(best_e1_.data(), best_e2_.data(), /*recompute_costate=*/true);
  }

  void run_pg() {
    pg_step_.assign(L_, opt_->gradient_initial_step);
    std::vector<double>& g1 = best_e1_;  // unused by PG: reuse as gradients
    std::vector<double>& g2 = best_e2_;
    t1_.resize(L_ * m_);
    t2_.resize(L_ * m_);

    forward_pass(e1_.data(), e2_.data(), state_);
    for (std::size_t l = 0; l < L_; ++l) {
      if (active_[l] && !lane_state_valid(state_, l)) {
        fail_lane(l, kInvalidForward);
      }
    }
    if (num_active_ > 0) {
      evaluate(state_, e1_.data(), e2_.data(), run_j_.data(), term_j_.data());
      for (std::size_t l = 0; l < L_; ++l) {
        objective_[l] = term_j_[l] + run_j_[l];
      }
    }

    for (std::size_t iter = 1;
         iter <= opt_->max_iterations && num_active_ > 0; ++iter) {
      batch_metrics().pg_iterations.add(num_active_);
      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        reports_[l].result.iterations = iter;
        reports_[l].result.objective_history.push_back(objective_[l]);
      }

      backward_pass(state_, e1_.data(), e2_.data());

      // Gradient and stationarity at the knots.
      std::fill(update_.begin(), update_.end(), 0.0);
      for_each_knot(state_, costate_, [&](std::size_t k, const double* p) {
        for (std::size_t l = 0; l < L_; ++l) {
          if (!active_[l]) continue;
          const std::size_t i = k * L_ + l;
          const double ek1 = e1_[i];
          const double ek2 = e2_[i];
          g1[i] = 2.0 * c1_[l] * ek1 * p[1 * L_ + l] - p[0 * L_ + l];
          g2[i] = 2.0 * c2_[l] * ek2 * p[3 * L_ + l] - p[2 * L_ + l];
          update_[l] = std::max(
              update_[l],
              std::abs(ek1 - util::clamp(ek1 - g1[i], 0.0, e1max_[l])));
          update_[l] = std::max(
              update_[l],
              std::abs(ek2 - util::clamp(ek2 - g2[i], 0.0, e2max_[l])));
        }
      });

      double max_update = 0.0;
      for (std::size_t l = 0; l < L_; ++l) {
        if (!active_[l]) continue;
        reports_[l].result.final_update = update_[l];
        max_update = std::max(max_update, update_[l]);
        if (update_[l] < opt_->gradient_tolerance) {
          reports_[l].result.converged = true;
          retire(l);
          continue;
        }
        const auto& history = reports_[l].result.objective_history;
        if (history.size() >= opt_->j_window) {
          const double early = history[history.size() - opt_->j_window];
          const double late = history.back();
          if (early - late <=
              opt_->j_tolerance * std::max(std::abs(late), 1.0)) {
            reports_[l].result.converged = true;
            retire(l);
          }
        }
      }
      batch_metrics().update_norm.set(max_update);
      if (num_active_ == 0) break;

      // Lockstep Armijo: searching lanes try their own step size;
      // retired and already-accepted lanes ride along under their
      // current controls (per-lane arithmetic is independent, so their
      // ignored trial results cost nothing but the occupied lane).
      std::copy(active_.begin(), active_.end(), searching_.begin());
      std::size_t num_searching = num_active_;
      for (std::size_t bt = 0;
           bt <= opt_->gradient_max_backtracks && num_searching > 0; ++bt) {
        for (std::size_t l = 0; l < L_; ++l) {
          if (searching_[l]) {
            const double step = pg_step_[l];
            double dm = 0.0;
            for (std::size_t k = 0; k < m_; ++k) {
              const std::size_t i = k * L_ + l;
              t1_[i] = util::clamp(e1_[i] - step * g1[i], 0.0, e1max_[l]);
              t2_[i] = util::clamp(e2_[i] - step * g2[i], 0.0, e2max_[l]);
              dm += g1[i] * (e1_[i] - t1_[i]) + g2[i] * (e2_[i] - t2_[i]);
            }
            decrease_[l] = dm;
          } else {
            for (std::size_t k = 0; k < m_; ++k) {
              t1_[k * L_ + l] = e1_[k * L_ + l];
              t2_[k * L_ + l] = e2_[k * L_ + l];
            }
          }
        }
        forward_pass(t1_.data(), t2_.data(), trial_);
        evaluate(trial_, t1_.data(), t2_.data(), run_j_.data(),
                 term_j_.data());
        for (std::size_t l = 0; l < L_; ++l) {
          if (!searching_[l]) continue;
          if (!lane_state_valid(trial_, l)) {
            fail_lane(l, kInvalidForward);
            searching_[l] = 0;
            --num_searching;
            continue;
          }
          const double trial_j = term_j_[l] + run_j_[l];
          if (trial_j <=
              objective_[l] - opt_->gradient_armijo * decrease_[l]) {
            for (std::size_t k = 0; k < m_; ++k) {
              e1_[k * L_ + l] = t1_[k * L_ + l];
              e2_[k * L_ + l] = t2_[k * L_ + l];
            }
            objective_[l] = trial_j;
            pg_step_[l] *= 2.0;  // optimistic growth for the next iteration
            searching_[l] = 0;
            --num_searching;
            batch_metrics().pg_accepts.add();
          } else {
            pg_step_[l] *= 0.5;
            batch_metrics().pg_backtracks.add();
          }
        }
      }
      for (std::size_t l = 0; l < L_; ++l) {
        if (active_[l] && searching_[l]) {
          // Line search exhausted: numerically stationary.
          reports_[l].result.converged = true;
          retire(l);
        }
      }
      if (num_active_ == 0) break;

      // Refresh the accepted state: re-integrating under the accepted
      // controls reproduces each lane's accepted trial pass bitwise
      // (the forward pass is a pure per-lane function of the controls).
      forward_pass(e1_.data(), e2_.data(), state_);
    }

    std::size_t unconverged = 0;
    for (const BatchSolveReport& report : reports_) {
      if (!report.result.converged && !report.failed) ++unconverged;
    }
    if (unconverged > 0) {
      util::log_warn() << "solve_optimal_control_batch: " << unconverged
                       << " gradient lane(s) not converged after "
                       << opt_->max_iterations << " iterations";
    }

    // PG reports the current (monotone-best) iterate and the last
    // computed costate, like the sequential driver.
    finalize(e1_.data(), e2_.data(), /*recompute_costate=*/false);
  }

  std::span<const BatchProblem> problems_;
  std::span<BatchSolveReport> reports_;
  const SweepOptions* opt_;
  double tf_;
  std::size_t n_, m_;
  std::size_t real_;  // problems in this chunk: lanes [0, real_)
  std::size_t L_;     // storage lanes: kern::padded_lanes(real_)
  std::vector<double> grid_;
  bool diagonal_;
  const kern::Ops* ops_;
  core::BatchSirModel model_;
  double step_dt_ = 0.0;
  std::size_t record_every_ = 1;

  // Per-lane problem data.
  ode::aligned_vector<double> y0_;       // 2n·L
  std::vector<double> c1_, c2_, wterm_;  // L
  std::vector<double> e1max_, e2max_;    // L

  // Per-lane iterate state (knot-major knot arrays, m·L — knot k's
  // lane block is contiguous so control sampling vectorizes).
  std::vector<double> e1_, e2_, best_e1_, best_e2_, t1_, t2_;
  std::vector<double> best_j_, relax_, update_, objective_, decrease_,
      pg_step_;
  std::vector<std::size_t> streak_;
  std::vector<char> active_, searching_;
  std::size_t num_active_ = 0;

  // Batch buffers.
  ode::BatchWorkspace ws_;
  ode::aligned_vector<double> e1_stage_, e2_stage_, theta_stage_;  // 3L
  ode::aligned_vector<double> carry_theta_, carry_e1_, carry_e2_;  // L
  ode::aligned_vector<double> ys0_, ysmid_, ys1_;                  // 2nL
  ode::aligned_vector<double> yk_, wk_;                            // 2nL
  ode::aligned_vector<double> knot4_;                              // 4L
  std::vector<double> ev1_, ev2_, s2_, i2_, run_j_, term_j_;       // L
  std::vector<double> integrand_;
  std::vector<double> lane_state_;  // 2n
  ode::BatchTrajectory state_, backward_, costate_, trial_;
};

}  // namespace

std::vector<BatchSolveReport> solve_optimal_control_batch(
    const core::NetworkProfile& profile,
    std::span<const BatchProblem> problems, double tf,
    const SweepOptions& options, std::size_t lanes) {
  util::require(!problems.empty(),
                "solve_optimal_control_batch: no problems");
  util::require(tf > 0.0, "solve_optimal_control_batch: tf must be positive");
  util::require(options.grid_points >= 3,
                "solve_optimal_control_batch: need at least 3 grid points");
  util::require(options.relaxation >= 0.0 && options.relaxation < 1.0,
                "solve_optimal_control_batch: relaxation must be in [0, 1)");
  util::require(options.substeps >= 1,
                "solve_optimal_control_batch: substeps must be >= 1");
  const std::size_t n = profile.num_groups();
  for (const BatchProblem& p : problems) {
    p.cost.validate();
    p.params.validate();
    const double b1 =
        p.epsilon1_max >= 0.0 ? p.epsilon1_max : options.epsilon1_max;
    const double b2 =
        p.epsilon2_max >= 0.0 ? p.epsilon2_max : options.epsilon2_max;
    util::require(b1 > 0.0 && b2 > 0.0,
                  "solve_optimal_control_batch: box bounds must be positive");
    util::require(
        p.y0.size() == 2 * n,
        "solve_optimal_control_batch: initial state dimension mismatch");
  }

  const std::size_t batch =
      lanes != 0 ? lanes : kern::preferred_batch_lanes();
  const std::size_t total = problems.size();
  const std::size_t num_chunks = (total + batch - 1) / batch;
  std::vector<BatchSolveReport> reports(total);
  batch_metrics().batch_solves.add(total);
  util::parallel_for(
      std::size_t{0}, num_chunks, /*grain=*/1, [&](std::size_t c) {
        const std::size_t lo = c * batch;
        const std::size_t count = std::min(batch, total - lo);
        ChunkSolver solver(profile, problems.subspan(lo, count), tf, options,
                           std::span<BatchSolveReport>(reports)
                               .subspan(lo, count));
        solver.run();
      });
  return reports;
}

}  // namespace rumor::control
