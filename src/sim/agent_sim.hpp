// Agent-based (microscopic) rumor simulation on a concrete graph.
//
// Cross-validates the mean-field ODE: on an uncorrelated network, the
// expected per-edge exposure of a susceptible v from an infected
// neighbor u is ω(k_u)/k_u, and summing over v's neighbors recovers the
// annealed coupling k_v·Θ. The microscopic infection hazard used here,
//
//   hazard(v) = (λ(k_v)/k_v) Σ_{u ∈ N(v), u infected} ω(k_u)/k_u,
//
// therefore has expectation λ(k_v)·Θ — exactly the ODE's group-i
// infection rate — so ensemble averages of the simulation should track
// System (1) whenever the mean-field assumptions (no degree
// correlations, no clustering) hold. The XVAL bench quantifies this.
//
// Per step of length dt (synchronous update):
//   S → I  with prob 1 − exp(−hazard(v)·dt)
//   S → R  with prob 1 − exp(−ε1·dt)      (truth immunization)
//   I → R  with prob 1 − exp(−ε2·dt)      (blocking)
// A node that would both become infected and be immunized in the same
// step is immunized (truth wins the tie, matching Fig. 1 where both
// arrows leave S).
//
// Determinism model: all per-step randomness comes from counter-based
// streams keyed by (seed, step, node) — one util::CounterRng per node
// per step, never a shared sequential generator — so a node's draws do
// not depend on visitation order, chunking, or the thread count, and a
// trajectory is a pure function of the constructor seed (see
// docs/parallelism.md).
//
// Two engines share that contract (AgentParams::engine):
//
//  * kDense — the reference O(N + E) sweep: every node is visited, and
//    each susceptible gathers the precomputed ω(k_u)/k_u weights of its
//    currently-infected exposure sources (in-neighbors on directed
//    graphs, neighbors otherwise, both flat CSR) in fixed CSR order.
//    Double-buffered, chunk-parallel, trivially auditable.
//
//  * kFrontier (default) — sparse stepping whose cost scales with the
//    infected frontier, not the graph: a per-node exposure count is
//    maintained by deterministic scatter when nodes enter/leave the
//    infected compartment, and the step only visits the current
//    infected set plus the active set of susceptibles with an infected
//    exposure source. Each node's infection trial is memoized as an
//    integer threshold, T(1 − exp(−λ(k)/k · gather · dt)) with
//    T = util::bernoulli_threshold: the same scatter marks every node
//    it touches stale, and a decision re-gathers a node (and pays the
//    exp) only while it is stale, so a susceptible whose sources kept
//    their compartments costs one integer compare. A step costs
//    O(|frontier|) plus the CSR lists of the nodes that flipped and of
//    the exposed susceptibles they touched; on a million-node graph at
//    low prevalence that is ~1000× less work than the dense sweep (see
//    docs/performance.md). When ε1(t) > 0 every susceptible can flip,
//    so those steps degrade gracefully to a full node sweep: the
//    dispatched kern::Ops::sweep_draws kernel takes every node's first
//    draw as an integer compare, 8 or 4 nodes per vector, and only the
//    exposed susceptibles it flags consult the memo.
//
// Because the per-node draw streams are shared, a threshold compare
// decides exactly as CounterRng::bernoulli, and a memoized threshold
// comes from the *same* fixed-order CSR gather the dense engine
// computes — a node's gather inputs change only when a source flips
// into or out of I, and every such flip marks the node stale — the two
// engines produce bit-identical trajectories; tests/test_sim_frontier.cpp
// pins this at 1/2/8 threads and across checkpoint/resume.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/schedule.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "kern/kern.hpp"
#include "sim/compartments.hpp"
#include "util/random.hpp"

namespace rumor::sim {

/// Which stepping engine an AgentSimulation uses. Both are bit-exact
/// replicas of the same stochastic process; kFrontier is the fast one,
/// kDense the O(N + E) reference used by equivalence tests.
enum class AgentEngine : std::uint8_t {
  kDense = 0,
  kFrontier = 1,
};

struct AgentParams {
  core::Acceptance lambda = core::Acceptance::linear();
  core::Infectivity omega = core::Infectivity::saturating();
  double epsilon1 = 0.0;  ///< immunization rate on susceptibles
  double epsilon2 = 0.0;  ///< blocking rate on infected
  double dt = 0.1;        ///< synchronous step length
  AgentEngine engine = AgentEngine::kFrontier;

  void validate() const;
};

/// Aggregate counts at one time point.
struct Census {
  double t = 0.0;
  std::size_t susceptible = 0;
  std::size_t infected = 0;
  std::size_t recovered = 0;
};

/// The complete dynamic state of an AgentSimulation — everything step()
/// reads besides the graph and AgentParams. Because per-step randomness
/// is a pure function of (seed, step, node), restoring this onto a
/// simulation built from the same graph/params continues the trajectory
/// bit-identically to an uninterrupted run, at any thread count and
/// under either engine (the engines themselves are bit-equivalent). The
/// on-disk form lives in sim/checkpoint.hpp.
struct AgentCheckpoint {
  std::uint64_t seed = 0;
  std::uint64_t step_count = 0;
  double time = 0.0;
  std::array<std::uint64_t, 4> rng_state{};  ///< seeding-draw generator
  std::size_t ever_infected = 0;
  std::vector<Compartment> state;  ///< one entry per node
};

class AgentSimulation {
 public:
  /// The graph must outlive the simulation.
  AgentSimulation(const graph::Graph& g, AgentParams params,
                  std::uint64_t seed);

  /// Run directly on a compressed, sharded graph: neighbor lists are
  /// decoded block-wise into per-thread scratch during hazard gathers
  /// and scatters, so the packed CSR is never materialized — the
  /// 100M+-edge out-of-core path. Undirected graphs only (the directed
  /// reverse-CSR build would defeat the point of not materializing).
  /// Trajectories are bit-identical to a simulation on the
  /// decompress()'d graph: decoding reproduces the stored CSR neighbor
  /// order exactly, so every gather sums the same weights in the same
  /// order. If the graph has a resident budget armed
  /// (set_resident_budget), step() calls enforce_budget() after each
  /// step's parallel work completes.
  AgentSimulation(const graph::CompressedGraph& zg, AgentParams params,
                  std::uint64_t seed);

  std::size_t num_nodes() const { return state_.size(); }
  double time() const { return time_; }
  Compartment state(graph::NodeId v) const { return state_.get(v); }
  /// The packed graph — throws unless this simulation was built from
  /// one. Representation-agnostic callers should prefer num_arcs() /
  /// directed() below.
  const graph::Graph& graph() const;
  /// Non-null when running on a compressed graph.
  const graph::CompressedGraph* compressed_graph() const { return zgraph_; }
  std::size_t num_arcs() const {
    return graph_ != nullptr ? graph_->num_arcs() : zgraph_->num_arcs();
  }
  bool directed() const {
    return graph_ != nullptr ? graph_->directed() : zgraph_->directed();
  }
  const AgentParams& params() const { return params_; }
  AgentEngine engine() const { return params_.engine; }
  std::uint64_t step_count() const { return step_count_; }

  /// Infect `count` uniformly random susceptible nodes.
  void seed_random_infections(std::size_t count);

  /// Infect the given nodes (any current state becomes infected).
  void seed_infections(const std::vector<graph::NodeId>& nodes);

  /// Immunize the given nodes up front (state := recovered) — the
  /// "blocking influential users" strategies from the paper's intro.
  void block_nodes(const std::vector<graph::NodeId>& nodes);

  /// Drive ε1/ε2 from a time-varying schedule (e.g. an optimized policy
  /// from control::solve_optimal_control) instead of the constant rates
  /// in AgentParams. Evaluated at the current simulation time each
  /// step. Pass nullptr to revert to the constants.
  void set_control_schedule(
      std::shared_ptr<const core::ControlSchedule> schedule);

  /// Advance one synchronous step of length dt.
  void step();

  /// Run until `t_end` (or until no infected remain, whichever first);
  /// returns the census after every step, starting with the current one.
  std::vector<Census> run_until(double t_end);

  /// As above, but `keep_going` is polled before each step; when it
  /// returns false the run stops after the last completed step. The
  /// simulation object is left in a valid mid-run state — RNG draws are
  /// keyed by (seed, step, node), so checkpointing here and resuming
  /// later continues the trajectory bit-for-bit (see docs/serving.md
  /// for how the daemon uses this to preempt jobs). An empty function
  /// behaves like the unconditional overload.
  std::vector<Census> run_until(double t_end,
                                const std::function<bool()>& keep_going,
                                bool* interrupted = nullptr);

  Census census() const;

  /// Infected density restricted to nodes of exact degree k.
  double infected_density_for_degree(std::size_t k) const;

  /// Microscopic estimate of Θ: (1/⟨k⟩) Σ_k ω(k) P̂(k) Î_k, computed from
  /// the current node states. Comparable to SirNetworkModel::theta.
  double theta_estimate() const;

  /// Per-degree-group densities, aligned with the graph's sorted
  /// distinct degrees — the microscopic counterpart of the ODE state,
  /// e.g. for evaluating the paper's group-quadratic cost J on an agent
  /// trajectory. O(n) per call.
  struct GroupDensities {
    std::vector<std::size_t> degrees;     ///< sorted distinct degrees
    std::vector<double> susceptible;      ///< Ŝ_k per group
    std::vector<double> infected;         ///< Î_k per group
  };
  GroupDensities group_densities() const;

  /// Nodes ever infected (cumulative attack count, including currently
  /// infected and those later blocked from I).
  std::size_t ever_infected() const { return ever_infected_; }

  // ---- frontier diagnostics (benches, stress tests) -----------------

  /// Cumulative CSR entries touched by step-time hazard gathers and
  /// infection scatters since construction (frontier memo hits, the
  /// restore rebuild and infection_threshold() reads are not counted).
  /// Divide a delta by the step count for the edges-touched-per-step
  /// figure reported by the bench harness.
  std::uint64_t edges_scanned() const { return edges_scanned_; }

  /// Frontier engine only: the integer threshold of v's infection
  /// trial, util::bernoulli_threshold(1 − exp(−λ(k_v)/k_v · h · dt))
  /// where h is the fixed-order CSR gather Σ ω(k_u)/k_u over v's
  /// currently infected exposure sources (0 when h is 0). Returns the
  /// memo when it is fresh, or recomputes (without caching) when v is
  /// stale.
  std::uint64_t infection_threshold(graph::NodeId v) const;

  /// Frontier engine only: number of infected exposure sources of v.
  std::uint32_t exposure_count(graph::NodeId v) const;

  /// Frontier engine only: size of the active set (susceptible nodes
  /// with at least one infected exposure source).
  std::size_t active_count() const;

  /// Capture the dynamic state for checkpointing.
  AgentCheckpoint checkpoint() const;

  /// Restore a checkpoint captured from a simulation on the same graph
  /// with the same params (the engine may differ — trajectories are
  /// engine-invariant). Derived quantities (census counters, the
  /// infected-weight table, exposure counts, threshold memo, active/
  /// infected sets) are recomputed from the node states; the control
  /// schedule is NOT part of the checkpoint — re-attach it before
  /// stepping if one was in use.
  void restore(const AgentCheckpoint& checkpoint);

 private:
  /// A state flip decided during a step, recorded in per-chunk buffers
  /// and applied in chunk order — the deterministic two-phase scatter
  /// that keeps the frontier engine's incremental structures
  /// thread-count invariant.
  struct Transition {
    graph::NodeId node;
    Compartment to;
  };

  /// Per-chunk census deltas for the dense engine's reduction.
  struct StepDelta {
    std::int64_t susceptible = 0;
    std::int64_t infected = 0;
    std::int64_t ever = 0;
  };

  /// Shared constructor body: everything derived from per-node degrees
  /// and the representation-independent buffers.
  void init_common(std::uint64_t seed);

  /// v's degree under either representation (compressed graphs here are
  /// always undirected, so out-degree is the degree).
  std::size_t node_degree(std::size_t v) const {
    return graph_ != nullptr
               ? graph_->degree(static_cast<graph::NodeId>(v))
               : zgraph_->out_degree(static_cast<graph::NodeId>(v));
  }

  /// v's out-neighbors. Packed: a CSR span. Compressed: decoded into
  /// this thread's scratch — the span stays valid until the calling
  /// thread's next decode, so use it before touching another list.
  std::span<const graph::NodeId> neighbors_of(graph::NodeId v) const;

  /// Nodes whose infection exposes v: in-neighbors on a directed graph
  /// (infection flows along out-edges), plain neighbors otherwise.
  std::span<const graph::NodeId> exposure_sources(std::size_t v) const {
    if (graph_ != nullptr && graph_->directed()) {
      return {exposure_sources_.data() + exposure_offsets_[v],
              exposure_offsets_[v + 1] - exposure_offsets_[v]};
    }
    return neighbors_of(static_cast<graph::NodeId>(v));
  }

  void step_dense(double p_immunize, double p_block, std::uint64_t step_key);
  void step_frontier(double p_immunize, double p_block,
                     std::uint64_t step_key);

  /// Fixed-CSR-order exposure sum over an already-fetched source list —
  /// the one definition of a node's infection hazard, shared verbatim
  /// by both engines and both graph representations.
  double gather_over(std::span<const graph::NodeId> sources) const {
    return ops_->gather_sum(infected_weight_.data(), sources.data(),
                            sources.size());
  }

  /// The integer threshold of v's infection trial given its gathered
  /// hazard: 0 when the hazard is not positive (the dense engine never
  /// draws then), else bernoulli_threshold(1 − exp(−rate·dt)) with the
  /// dense engine's rate expression. λ(k)/k and dt are fixed for the
  /// simulation, so the value depends on the gather alone.
  std::uint64_t threshold_of(std::size_t v, double hazard) const;

  /// Frontier decision phases: v's memoized infection threshold,
  /// re-gathered (and its CSR entries added to `edges`) only while v is
  /// stale. Each node is decided by exactly one chunk, so the
  /// write-back is race-free.
  std::uint64_t memo_threshold(std::size_t v, std::uint64_t& edges);

  /// Flip v to `to`, maintaining counters, the infected-weight table
  /// and (frontier engine) the exposure counts / threshold memo / active
  /// and infected sets. No-op when v already is in `to`.
  void apply_transition(graph::NodeId v, Compartment to);

  /// Update the exposure count of every node u exposes and mark its
  /// memoized threshold stale (u's weight in its gather just changed).
  void scatter_infectiousness(graph::NodeId u, bool became_infectious);

  void active_add(graph::NodeId v);
  void active_remove_if_present(graph::NodeId v);
  void infected_add(graph::NodeId v);
  void infected_remove(graph::NodeId v);

  /// Rebuild exposure counts, the threshold memo and the active/infected
  /// sets from the compartment array (restore path).
  void rebuild_frontier();

  bool frontier() const { return params_.engine == AgentEngine::kFrontier; }

  // Exactly one of the two is set; every access goes through the
  // representation-agnostic helpers above.
  const graph::Graph* graph_ = nullptr;
  const graph::CompressedGraph* zgraph_ = nullptr;
  AgentParams params_;
  const kern::Ops* ops_;  // dispatched kernel table, resolved once
  std::shared_ptr<const core::ControlSchedule> control_;
  util::Xoshiro256 rng_;  // seeding only; step() uses counter streams
  std::uint64_t seed_ = 0;
  std::uint64_t step_count_ = 0;
  double time_ = 0.0;
  // Hot per-node state, SoA with 2-bit packed compartments.
  PackedCompartments state_;
  std::vector<double> lambda_over_k_;  // λ(k_v)/k_v per node
  std::vector<double> omega_over_k_;   // ω(k_u)/k_u per node
  // infected_weight_[u] = ω(k_u)/k_u while u is infected, else 0 —
  // makes the hazard gather a branch-free sum.
  std::vector<double> infected_weight_;
  // Dense engine double buffers (empty under the frontier engine).
  PackedCompartments next_state_;
  std::vector<double> next_infected_weight_;
  // Frontier engine incremental structures (empty under dense).
  std::vector<std::uint32_t> exposure_count_;  // infected exposure sources
  // Memoized infection-trial threshold (threshold_of the gather);
  // all-ones: stale.
  std::vector<std::uint64_t> infection_threshold_;
  std::vector<graph::NodeId> active_list_;     // S nodes with count > 0
  std::vector<std::uint32_t> active_pos_;      // node → index, kNoPos if out
  std::vector<graph::NodeId> infected_list_;
  std::vector<std::uint32_t> infected_pos_;
  // Per-chunk transition buffers (capacity reserved up front: at most
  // one transition per node, so warm steps never allocate).
  std::vector<std::vector<Transition>> chunk_transitions_;
  std::vector<std::uint64_t> chunk_edges_;
  std::vector<StepDelta> chunk_deltas_;  // dense engine reduction
  // Reverse (in-neighbor) CSR, built once for directed graphs only.
  std::vector<std::size_t> exposure_offsets_;
  std::vector<graph::NodeId> exposure_sources_;
  std::vector<std::size_t> group_of_;  // node → distinct-degree group
  std::vector<std::size_t> group_degrees_;  // sorted distinct degrees
  std::vector<std::size_t> group_sizes_;    // nodes per group
  std::size_t susceptible_count_ = 0;
  std::size_t infected_count_ = 0;
  std::size_t ever_infected_ = 0;
  std::uint64_t edges_scanned_ = 0;
};

}  // namespace rumor::sim
