#include "sim/agent_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace rumor::sim {

namespace {
// Registry handles, resolved once (registration locks; add() never
// does). Leaked so spans in static-duration objects stay valid.
struct SimMetrics {
  obs::Counter& steps;
  obs::Counter& edges_scanned;
  obs::Counter& infections;
  obs::Counter& recoveries;
  obs::Gauge& infected;
  obs::Gauge& frontier_active;
  obs::Gauge& frontier_infected;
};

SimMetrics& sim_metrics() {
  static SimMetrics* const m = [] {
    obs::Registry& r = obs::metrics();
    return new SimMetrics{r.counter("sim.steps"),
                          r.counter("sim.edges_scanned"),
                          r.counter("sim.infections"),
                          r.counter("sim.recoveries"),
                          r.gauge("sim.infected"),
                          r.gauge("sim.frontier_active"),
                          r.gauge("sim.frontier_infected")};
  }();
  return *m;
}

// Nodes (or frontier-list entries) per parallel chunk. Fixed — never
// derived from the thread count — so chunk boundaries, and therefore
// the order transitions are applied in, are a pure function of the
// work size.
constexpr std::size_t kStepGrain = 2048;

// Chunks write the packed next-state array concurrently, so chunk
// boundaries must not split a 64-bit word between two writers.
static_assert(kStepGrain % PackedCompartments::kNodesPerWord == 0,
              "step grain must align to packed-compartment words");

// Sentinel for "node not in this list" in the position indices.
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

// Memoized-threshold mark for "a source changed compartment since the
// last gather". Real thresholds are at most 2^53, so all-ones never
// collides.
constexpr std::uint64_t kStaleThreshold = ~std::uint64_t{0};

// Mask words per full-sweep chunk: one bit per node.
constexpr std::size_t kMaskWords = kStepGrain / 64;
static_assert(kStepGrain % 64 == 0,
              "full-sweep chunks must start on a mask-word boundary");

// Per-thread decode target for compressed-graph neighbor lists. One
// scratch per OS thread (not per simulation): decode_neighbors resizes
// it to whatever graph is being decoded, and the returned span is only
// used before the same thread's next decode.
thread_local graph::NeighborScratch t_decode_scratch;
}  // namespace

void AgentParams::validate() const {
  util::require(epsilon1 >= 0.0 && epsilon2 >= 0.0,
                "AgentParams: rates must be non-negative");
  util::require(dt > 0.0, "AgentParams: dt must be positive");
  util::require(engine == AgentEngine::kDense ||
                    engine == AgentEngine::kFrontier,
                "AgentParams: unknown engine");
}

AgentSimulation::AgentSimulation(const graph::Graph& g, AgentParams params,
                                 std::uint64_t seed)
    : graph_(&g), params_(params), ops_(&kern::ops()), rng_(seed) {
  init_common(seed);
  if (graph_->directed()) {
    // Reverse CSR: the hazard gather needs "who exposes v", i.e. the
    // in-neighbors, which the (out-)CSR graph does not list directly.
    const std::size_t n = num_nodes();
    exposure_offsets_.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
      exposure_offsets_[v + 1] =
          exposure_offsets_[v] +
          graph_->in_degree(static_cast<graph::NodeId>(v));
    }
    exposure_sources_.resize(exposure_offsets_[n]);
    std::vector<std::size_t> cursor(exposure_offsets_.begin(),
                                    exposure_offsets_.end() - 1);
    for (std::size_t u = 0; u < n; ++u) {
      for (const graph::NodeId v :
           graph_->neighbors(static_cast<graph::NodeId>(u))) {
        exposure_sources_[cursor[v]++] = static_cast<graph::NodeId>(u);
      }
    }
  }
}

AgentSimulation::AgentSimulation(const graph::CompressedGraph& zg,
                                 AgentParams params, std::uint64_t seed)
    : zgraph_(&zg), params_(params), ops_(&kern::ops()), rng_(seed) {
  util::require(!zg.directed(),
                "AgentSimulation: compressed graphs must be undirected — "
                "the directed reverse-CSR build would materialize exactly "
                "the array this path exists to avoid");
  init_common(seed);
}

const graph::Graph& AgentSimulation::graph() const {
  util::require(graph_ != nullptr,
                "AgentSimulation::graph: simulation runs on a compressed "
                "graph — use num_arcs()/directed()/compressed_graph()");
  return *graph_;
}

std::span<const graph::NodeId> AgentSimulation::neighbors_of(
    graph::NodeId v) const {
  if (graph_ != nullptr) return graph_->neighbors(v);
  const std::size_t count = zgraph_->decode_neighbors(v, t_decode_scratch);
  return {t_decode_scratch.ids.data(), count};
}

void AgentSimulation::init_common(std::uint64_t seed) {
  seed_ = seed;
  params_.validate();
  const std::size_t n =
      graph_ != nullptr ? graph_->num_nodes() : zgraph_->num_nodes();
  util::require(n > 0, "AgentSimulation: empty graph");
  state_.assign(n, Compartment::kSusceptible);
  infected_weight_.assign(n, 0.0);
  susceptible_count_ = n;
  std::vector<std::uint32_t> degrees(n);
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t degree = node_degree(v);
    degrees[v] = static_cast<std::uint32_t>(degree);
    max_degree = std::max(max_degree, degree);
  }
  // Degree groups from a flat histogram (degrees are at most n): count,
  // then number the nonempty degrees in ascending order in place, and
  // evaluate λ(k)/k and ω(k)/k once per distinct degree.
  std::vector<std::size_t> group_index(max_degree + 1, 0);
  for (const std::uint32_t degree : degrees) ++group_index[degree];
  std::vector<double> group_lambda_over_k, group_omega_over_k;
  for (std::size_t degree = 0; degree <= max_degree; ++degree) {
    const std::size_t count = group_index[degree];
    if (count == 0) continue;
    group_index[degree] = group_degrees_.size();
    group_degrees_.push_back(degree);
    group_sizes_.push_back(count);
    const auto k = static_cast<double>(degree);
    // Isolated nodes cannot catch or spread.
    group_lambda_over_k.push_back(k > 0.0 ? params_.lambda(k) / k : 0.0);
    group_omega_over_k.push_back(k > 0.0 ? params_.omega(k) / k : 0.0);
  }
  group_of_.resize(n);
  lambda_over_k_.resize(n);
  omega_over_k_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t group = group_index[degrees[v]];
    group_of_[v] = group;
    lambda_over_k_[v] = group_lambda_over_k[group];
    omega_over_k_[v] = group_omega_over_k[group];
  }
  // Every per-step buffer is sized once here so warm steps never touch
  // the allocator (pinned by tests/test_perf_alloc.cpp). A full sweep
  // needs ceil(n / grain) chunks; the sparse path runs two back-to-back
  // regions over disjoint node sets, which can need one extra chunk per
  // region for the remainders.
  const std::size_t max_chunks = (n + kStepGrain - 1) / kStepGrain + 2;
  chunk_edges_.assign(max_chunks, 0);
  if (params_.engine == AgentEngine::kDense) {
    next_state_.assign(n, Compartment::kSusceptible);
    next_infected_weight_.assign(n, 0.0);
    chunk_deltas_.assign(max_chunks, StepDelta{});
  } else {
    exposure_count_.assign(n, 0);
    infection_threshold_.assign(n, 0);
    active_pos_.assign(n, kNoPos);
    infected_pos_.assign(n, kNoPos);
    active_list_.reserve(n);
    infected_list_.reserve(n);
    chunk_transitions_.resize(max_chunks);
    for (auto& buffer : chunk_transitions_) buffer.reserve(kStepGrain);
  }
}

AgentSimulation::GroupDensities AgentSimulation::group_densities() const {
  GroupDensities out;
  out.degrees = group_degrees_;
  out.susceptible.assign(group_degrees_.size(), 0.0);
  out.infected.assign(group_degrees_.size(), 0.0);
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (state_.get(v) == Compartment::kSusceptible) {
      out.susceptible[group_of_[v]] += 1.0;
    } else if (state_.get(v) == Compartment::kInfected) {
      out.infected[group_of_[v]] += 1.0;
    }
  }
  for (std::size_t gi = 0; gi < group_degrees_.size(); ++gi) {
    const auto size = static_cast<double>(group_sizes_[gi]);
    out.susceptible[gi] /= size;
    out.infected[gi] /= size;
  }
  return out;
}

void AgentSimulation::seed_random_infections(std::size_t count) {
  util::require(count <= num_nodes(),
                "seed_infections: more seeds than nodes");
  std::vector<graph::NodeId> susceptible;
  susceptible.reserve(num_nodes());
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (state_.get(v) == Compartment::kSusceptible) {
      susceptible.push_back(static_cast<graph::NodeId>(v));
    }
  }
  util::require(count <= susceptible.size(),
                "seed_infections: not enough susceptible nodes");
  const auto picks =
      util::sample_without_replacement(susceptible.size(), count, rng_);
  std::vector<graph::NodeId> nodes;
  nodes.reserve(picks.size());
  for (const std::size_t p : picks) nodes.push_back(susceptible[p]);
  seed_infections(nodes);
}

void AgentSimulation::seed_infections(
    const std::vector<graph::NodeId>& nodes) {
  for (const graph::NodeId v : nodes) {
    util::require(v < num_nodes(), "seed_infections: node out of range");
    apply_transition(v, Compartment::kInfected);
  }
}

void AgentSimulation::block_nodes(const std::vector<graph::NodeId>& nodes) {
  for (const graph::NodeId v : nodes) {
    util::require(v < num_nodes(), "block_nodes: node out of range");
    apply_transition(v, Compartment::kRecovered);
  }
}

void AgentSimulation::set_control_schedule(
    std::shared_ptr<const core::ControlSchedule> schedule) {
  control_ = std::move(schedule);
}

// gather_over (agent_sim.hpp) is the one definition of a node's
// exposure: a fixed summation scheme over the full CSR source list.
// Both engines call exactly this — the same kernel of the same backend
// — which is what makes them bit-identical: non-infected sources
// contribute a true 0.0, and adding 0.0 anywhere in a sum of
// non-negative IEEE doubles does not perturb it, so the result is a
// pure function of the infected weights in CSR order under whichever
// lane split the backend uses. Compressed graphs decode the identical
// stored order, so the same argument covers both representations. The
// frontier engine's memo stores the integer threshold of exactly this
// value's infection trial (threshold_of) and is marked stale whenever
// an input weight changes, so a reused memo decides as the gather would.

void AgentSimulation::step() {
  const obs::TraceSpan span("sim.step");
  const double dt = params_.dt;
  const double e1 =
      control_ ? control_->epsilon1(time_) : params_.epsilon1;
  const double e2 =
      control_ ? control_->epsilon2(time_) : params_.epsilon2;
  const double p_immunize = 1.0 - std::exp(-e1 * dt);
  const double p_block = 1.0 - std::exp(-e2 * dt);
  const std::uint64_t step_key = util::hash_mix(seed_, step_count_);
  // Telemetry from the census counters the step maintains anyway:
  // within one step nodes only move S->I, S->R, or I->R, so the
  // ever-infected and recovered counts are monotone and their deltas
  // are this step's infection / recovery totals.
  const std::size_t ever_before = ever_infected_;
  const std::size_t recovered_before =
      num_nodes() - susceptible_count_ - infected_count_;
  const std::uint64_t edges_before = edges_scanned_;
  if (frontier()) {
    step_frontier(p_immunize, p_block, step_key);
  } else {
    step_dense(p_immunize, p_block, step_key);
  }
  ++step_count_;
  time_ += dt;
  if (zgraph_ != nullptr) {
    // Out-of-core sweep: all of this step's parallel decodes are done,
    // so it is safe to advise the coldest shards' pages out. Touch
    // tracking during the step decided which shards are cold.
    zgraph_->enforce_budget();
  }
  SimMetrics& m = sim_metrics();
  m.steps.add();
  m.edges_scanned.add(edges_scanned_ - edges_before);
  m.infections.add(ever_infected_ - ever_before);
  m.recoveries.add(num_nodes() - susceptible_count_ - infected_count_ -
                   recovered_before);
  m.infected.set(static_cast<double>(infected_count_));
  if (frontier()) {
    m.frontier_active.set(static_cast<double>(active_list_.size()));
    m.frontier_infected.set(static_cast<double>(infected_list_.size()));
  }
}

void AgentSimulation::step_dense(double p_immunize, double p_block,
                                 std::uint64_t step_key) {
  const std::size_t n = num_nodes();
  const double dt = params_.dt;

  // One fused pass per chunk: gather the hazard of each susceptible
  // node from the current (read-only) state/weight buffers, draw its
  // transitions from its per-node counter stream, and write the
  // double-buffered next_* arrays (chunks are word-aligned, race-free).
  util::parallel_for_chunks(
      std::size_t{0}, n, kStepGrain,
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        const obs::TraceSpan chunk_span("sim.chunk");
        StepDelta d;
        std::uint64_t edges = 0;
        for (std::size_t v = lo; v < hi; ++v) {
          const Compartment cur = state_.get(v);
          Compartment next = cur;
          double weight = 0.0;
          switch (cur) {
            case Compartment::kSusceptible: {
              util::CounterRng draw(util::hash_mix(step_key, v));
              // Truth wins ties: test immunization first.
              if (draw.bernoulli(p_immunize)) {
                next = Compartment::kRecovered;
                --d.susceptible;
              } else {
                // One fetch serves both the gather and the edge count —
                // on compressed graphs a fetch is a varint decode, so
                // calling exposure_sources twice would double the work.
                const auto sources = exposure_sources(v);
                edges += sources.size();
                const double hazard = gather_over(sources);
                if (hazard > 0.0) {
                  const double rate = lambda_over_k_[v] * hazard;
                  if (draw.bernoulli(1.0 - std::exp(-rate * dt))) {
                    next = Compartment::kInfected;
                    weight = omega_over_k_[v];
                    --d.susceptible;
                    ++d.infected;
                    ++d.ever;
                  }
                }
              }
              break;
            }
            case Compartment::kInfected: {
              util::CounterRng draw(util::hash_mix(step_key, v));
              if (draw.bernoulli(p_block)) {
                next = Compartment::kRecovered;
                --d.infected;
              } else {
                weight = omega_over_k_[v];
              }
              break;
            }
            case Compartment::kRecovered:
              break;
          }
          next_state_.set(v, next);
          next_infected_weight_[v] = weight;
        }
        chunk_deltas_[chunk] = d;
        chunk_edges_[chunk] = edges;
      });

  state_.swap(next_state_);
  infected_weight_.swap(next_infected_weight_);
  const std::size_t chunks = (n + kStepGrain - 1) / kStepGrain;
  for (std::size_t c = 0; c < chunks; ++c) {
    susceptible_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(susceptible_count_) +
        chunk_deltas_[c].susceptible);
    infected_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(infected_count_) +
        chunk_deltas_[c].infected);
    ever_infected_ += static_cast<std::size_t>(chunk_deltas_[c].ever);
    edges_scanned_ += chunk_edges_[c];
  }
}

void AgentSimulation::step_frontier(double p_immunize, double p_block,
                                    std::uint64_t step_key) {
  // Every trial below is an integer compare against a threshold (see
  // util::bernoulli_threshold) on the node's own counter stream, which
  // decides exactly as the dense engine's CounterRng::bernoulli.
  const std::uint64_t t_block = util::bernoulli_threshold(p_block);
  std::size_t used_chunks = 0;

  if (p_immunize > 0.0) {
    // Immunization steps: every susceptible node needs a draw, so sweep
    // all nodes like the dense engine. The dispatched kernel takes every
    // S and I node's first draw 8 (AVX-512) or 4 (AVX2) at a time and
    // returns two bit masks: nodes that recover (immunized S, blocked I)
    // and exposed susceptibles that survived immunization. Only the
    // latter take their memoized infection threshold (a stale one costs
    // a gather) and their second draw — truth wins ties, as in the
    // dense engine, whose infection draw follows the immunization draw.
    const std::uint64_t t_immunize = util::bernoulli_threshold(p_immunize);
    const std::size_t n = num_nodes();
    used_chunks = (n + kStepGrain - 1) / kStepGrain;
    util::parallel_for_chunks(
        std::size_t{0}, n, kStepGrain,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          const obs::TraceSpan chunk_span("sim.chunk");
          auto& out = chunk_transitions_[chunk];
          out.clear();
          std::uint64_t edges = 0;
          std::uint64_t recover[kMaskWords];
          std::uint64_t exposed[kMaskWords];
          ops_->sweep_draws(state_.words(), exposure_count_.data(), lo, hi,
                            step_key, t_immunize, t_block, recover, exposed);
          // Set bits in ascending node order: the transition record is
          // the one a per-node loop over [lo, hi) would write.
          const std::size_t words = (hi - lo + 63) / 64;
          for (std::size_t w = 0; w < words; ++w) {
            for (std::uint64_t bits = recover[w] | exposed[w]; bits != 0;
                 bits &= bits - 1) {
              const int b = std::countr_zero(bits);
              const auto v = static_cast<graph::NodeId>(lo + 64 * w + b);
              if ((recover[w] >> b) & 1U) {
                out.push_back({v, Compartment::kRecovered});
                continue;
              }
              const std::uint64_t threshold = memo_threshold(v, edges);
              if (threshold > 0) {
                util::CounterRng draw(util::hash_mix(step_key, v));
                draw.next();  // the immunization draw the kernel took
                if (draw.below(threshold)) {
                  out.push_back({v, Compartment::kInfected});
                }
              }
            }
          }
          chunk_edges_[chunk] = edges;
        });
  } else {
    // Sparse steps: only the active set (susceptibles with an infected
    // exposure source) and the infected set can flip. Unvisited nodes
    // consume no draws in the dense engine either (p <= 0 Bernoulli
    // trials are free, zero-hazard nodes never reach their infection
    // draw), and every node owns its own stream, so skipping them
    // cannot shift anyone else's randomness. With no immunization
    // trial, the infection draw is each node's first.
    const std::size_t active = active_list_.size();
    const std::size_t active_chunks =
        (active + kStepGrain - 1) / kStepGrain;
    util::parallel_for_chunks(
        std::size_t{0}, active, kStepGrain,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          const obs::TraceSpan chunk_span("sim.chunk");
          auto& out = chunk_transitions_[chunk];
          out.clear();
          std::uint64_t edges = 0;
          for (std::size_t at = lo; at < hi; ++at) {
            const graph::NodeId v = active_list_[at];
            const std::uint64_t threshold = memo_threshold(v, edges);
            if (threshold > 0) {
              util::CounterRng draw(util::hash_mix(step_key, v));
              if (draw.below(threshold)) {
                out.push_back({v, Compartment::kInfected});
              }
            }
          }
          chunk_edges_[chunk] = edges;
        });
    used_chunks = active_chunks;
    if (t_block > 0) {
      const std::size_t infected = infected_list_.size();
      util::parallel_for_chunks(
          std::size_t{0}, infected, kStepGrain,
          [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
            auto& out = chunk_transitions_[active_chunks + chunk];
            out.clear();
            for (std::size_t at = lo; at < hi; ++at) {
              const graph::NodeId v = infected_list_[at];
              util::CounterRng draw(util::hash_mix(step_key, v));
              if (draw.below(t_block)) {
                out.push_back({v, Compartment::kRecovered});
              }
            }
            chunk_edges_[active_chunks + chunk] = 0;
          });
      used_chunks += (infected + kStepGrain - 1) / kStepGrain;
    }
  }

  // Apply phase, serial and in chunk order: decisions were made against
  // the step-start state, each node appears at most once, and integer
  // exposure-count updates and stale marks commute — so the trajectory
  // is identical for any thread count (and to the dense engine's
  // double-buffered swap).
  for (std::size_t c = 0; c < used_chunks; ++c) {
    for (const Transition& t : chunk_transitions_[c]) {
      apply_transition(t.node, t.to);
    }
    edges_scanned_ += chunk_edges_[c];
  }
}

void AgentSimulation::apply_transition(graph::NodeId v, Compartment to) {
  const Compartment from = state_.get(v);
  if (from == to) return;
  if (from == Compartment::kSusceptible) --susceptible_count_;
  if (from == Compartment::kInfected) --infected_count_;
  if (to == Compartment::kSusceptible) ++susceptible_count_;
  if (to == Compartment::kInfected) {
    ++infected_count_;
    ++ever_infected_;  // counts re-seeding of recovered nodes too
  }
  state_.set(v, to);
  if (frontier()) {
    if (from == Compartment::kSusceptible) active_remove_if_present(v);
    if (from == Compartment::kInfected) infected_remove(v);
    if (to == Compartment::kInfected) infected_add(v);
    if (to == Compartment::kSusceptible && exposure_count_[v] > 0) {
      active_add(v);
    }
  }
  if (to == Compartment::kInfected) {
    infected_weight_[v] = omega_over_k_[v];
    if (frontier()) scatter_infectiousness(v, true);
  } else if (from == Compartment::kInfected) {
    infected_weight_[v] = 0.0;
    if (frontier()) scatter_infectiousness(v, false);
  }
}

std::uint64_t AgentSimulation::threshold_of(std::size_t v,
                                            double hazard) const {
  // The dense engine's infection trial: a zero hazard never reaches its
  // draw, otherwise bernoulli(1 − exp(−rate·dt)).
  if (!(hazard > 0.0)) return 0;
  const double rate = lambda_over_k_[v] * hazard;
  return util::bernoulli_threshold(1.0 - std::exp(-rate * params_.dt));
}

std::uint64_t AgentSimulation::memo_threshold(std::size_t v,
                                              std::uint64_t& edges) {
  std::uint64_t& memo = infection_threshold_[v];
  if (memo == kStaleThreshold) {
    // One fetch serves both the gather and the edge count — on
    // compressed graphs a fetch is a varint decode.
    const auto sources = exposure_sources(v);
    edges += sources.size();
    memo = threshold_of(v, gather_over(sources));
  }
  return memo;
}

void AgentSimulation::scatter_infectiousness(graph::NodeId u,
                                             bool became_infectious) {
  // u's out-neighbors are exactly the nodes whose exposure list
  // contains u (for undirected graphs, neighbors == exposure sources).
  // Every change to a gather input (u's infected weight) passes through
  // here, so marking the targets stale keeps each memo exact.
  const auto targets = neighbors_of(u);
  for (const graph::NodeId t : targets) {
    infection_threshold_[t] = kStaleThreshold;
    std::uint32_t& count = exposure_count_[t];
    if (became_infectious) {
      if (++count == 1 && state_.get(t) == Compartment::kSusceptible) {
        active_add(t);
      }
    } else if (--count == 0) {
      active_remove_if_present(t);
    }
  }
  edges_scanned_ += targets.size();
}

void AgentSimulation::active_add(graph::NodeId v) {
  active_pos_[v] = static_cast<std::uint32_t>(active_list_.size());
  active_list_.push_back(v);
}

void AgentSimulation::active_remove_if_present(graph::NodeId v) {
  const std::uint32_t at = active_pos_[v];
  if (at == kNoPos) return;
  const graph::NodeId last = active_list_.back();
  active_list_[at] = last;
  active_pos_[last] = at;
  active_list_.pop_back();
  active_pos_[v] = kNoPos;
}

void AgentSimulation::infected_add(graph::NodeId v) {
  infected_pos_[v] = static_cast<std::uint32_t>(infected_list_.size());
  infected_list_.push_back(v);
}

void AgentSimulation::infected_remove(graph::NodeId v) {
  const std::uint32_t at = infected_pos_[v];
  const graph::NodeId last = infected_list_.back();
  infected_list_[at] = last;
  infected_pos_[last] = at;
  infected_list_.pop_back();
  infected_pos_[v] = kNoPos;
}

void AgentSimulation::rebuild_frontier() {
  const std::size_t n = num_nodes();
  std::fill(active_pos_.begin(), active_pos_.end(), kNoPos);
  std::fill(infected_pos_.begin(), infected_pos_.end(), kNoPos);
  active_list_.clear();
  infected_list_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    const auto sources = exposure_sources(v);
    std::uint32_t count = 0;
    for (const graph::NodeId u : sources) {
      if (state_.get(u) == Compartment::kInfected) ++count;
    }
    exposure_count_[v] = count;
    // With no infected source every weight is +0.0, so the gather is
    // exactly 0.0 and the threshold 0.
    infection_threshold_[v] =
        count > 0 ? threshold_of(v, gather_over(sources)) : 0;
    const graph::NodeId id = static_cast<graph::NodeId>(v);
    if (state_.get(v) == Compartment::kInfected) {
      infected_add(id);
    } else if (state_.get(v) == Compartment::kSusceptible && count > 0) {
      active_add(id);
    }
  }
}

std::uint64_t AgentSimulation::infection_threshold(graph::NodeId v) const {
  util::require(frontier(), "infection_threshold: frontier engine only");
  util::require(v < num_nodes(), "infection_threshold: node out of range");
  const std::uint64_t memo = infection_threshold_[v];
  return memo != kStaleThreshold ? memo
                                 : threshold_of(v, gather_over(
                                                       exposure_sources(v)));
}

std::uint32_t AgentSimulation::exposure_count(graph::NodeId v) const {
  util::require(frontier(), "exposure_count: frontier engine only");
  util::require(v < num_nodes(), "exposure_count: node out of range");
  return exposure_count_[v];
}

std::size_t AgentSimulation::active_count() const {
  util::require(frontier(), "active_count: frontier engine only");
  return active_list_.size();
}

AgentCheckpoint AgentSimulation::checkpoint() const {
  AgentCheckpoint c;
  c.seed = seed_;
  c.step_count = step_count_;
  c.time = time_;
  c.rng_state = rng_.state();
  c.ever_infected = ever_infected_;
  c.state.resize(num_nodes());
  for (std::size_t v = 0; v < num_nodes(); ++v) c.state[v] = state_.get(v);
  return c;
}

void AgentSimulation::restore(const AgentCheckpoint& checkpoint) {
  util::require(checkpoint.state.size() == num_nodes(),
                "AgentSimulation::restore: checkpoint has " +
                    std::to_string(checkpoint.state.size()) +
                    " nodes, simulation has " +
                    std::to_string(num_nodes()));
  seed_ = checkpoint.seed;
  step_count_ = checkpoint.step_count;
  time_ = checkpoint.time;
  rng_.set_state(checkpoint.rng_state);
  ever_infected_ = checkpoint.ever_infected;
  // Recompute every derived quantity from the node states so the
  // restored object is exactly what an uninterrupted run would hold.
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    const Compartment c = checkpoint.state[v];
    util::require(c <= Compartment::kRecovered,
                  "AgentSimulation::restore: invalid compartment");
    state_.set(v, c);
    infected_weight_[v] =
        c == Compartment::kInfected ? omega_over_k_[v] : 0.0;
  }
  std::size_t infected = 0, recovered = 0;
  state_.census(infected, recovered);
  infected_count_ = infected;
  susceptible_count_ = num_nodes() - infected - recovered;
  util::require(ever_infected_ >= infected_count_,
                "AgentSimulation::restore: ever_infected below the current "
                "infected count — inconsistent checkpoint");
  if (frontier()) rebuild_frontier();
}

std::vector<Census> AgentSimulation::run_until(double t_end) {
  return run_until(t_end, {});
}

std::vector<Census> AgentSimulation::run_until(
    double t_end, const std::function<bool()>& keep_going,
    bool* interrupted) {
  util::require(t_end >= time_, "run_until: t_end is in the past");
  if (interrupted != nullptr) *interrupted = false;
  std::vector<Census> history;
  history.push_back(census());
  while (time_ < t_end && infected_count_ > 0) {
    if (keep_going && !keep_going()) {
      if (interrupted != nullptr) *interrupted = true;
      break;
    }
    step();
    history.push_back(census());
  }
  return history;
}

Census AgentSimulation::census() const {
  // O(1): the counters are maintained incrementally by step(),
  // seed_infections, and block_nodes.
  Census c;
  c.t = time_;
  c.susceptible = susceptible_count_;
  c.infected = infected_count_;
  c.recovered = num_nodes() - susceptible_count_ - infected_count_;
  return c;
}

double AgentSimulation::infected_density_for_degree(std::size_t k) const {
  std::size_t with_degree = 0;
  std::size_t infected = 0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (group_degrees_[group_of_[v]] != k) continue;
    ++with_degree;
    if (state_.get(v) == Compartment::kInfected) ++infected;
  }
  if (with_degree == 0) return 0.0;
  return static_cast<double>(infected) / static_cast<double>(with_degree);
}

double AgentSimulation::theta_estimate() const {
  // Θ̂ = (1/⟨k⟩) Σ_k ω(k) P̂(k) Î_k = (1/(N⟨k⟩)) Σ_{v infected} ω(k_v).
  double sum = 0.0;
  double degree_total = 0.0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    // Degrees come from the cached group table, not the graph — one
    // code path for both representations, no decode on the compressed
    // one.
    const auto k = static_cast<double>(group_degrees_[group_of_[v]]);
    degree_total += k;
    if (state_.get(v) == Compartment::kInfected && k > 0.0) {
      sum += params_.omega(k);
    }
  }
  const double mean_k = degree_total / static_cast<double>(num_nodes());
  if (mean_k == 0.0) return 0.0;
  return sum / (static_cast<double>(num_nodes()) * mean_k);
}

}  // namespace rumor::sim
