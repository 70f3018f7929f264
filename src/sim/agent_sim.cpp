#include "sim/agent_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

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

// Apply partitions: power-of-two node ranges, a function of n alone —
// never of the thread count — at most kMaxApplyPartitions of them and
// at least kMinPartitionNodes nodes each, so graphs up to that size
// (rumord's 20k-node jobs) are one partition.
constexpr std::size_t kMaxApplyPartitions = 64;
constexpr std::size_t kMinPartitionNodes = 32768;
static_assert(kMinPartitionNodes % kStepGrain == 0,
              "partitions must be unions of step chunks");

// Apply groups per round, and the planned ops below which a round is
// one group and its replay runs inline (too little work for the pool).
constexpr std::size_t kMaxApplyGroups = 32;
constexpr std::size_t kMinGroupOps = 2048;

// How many ops ahead the replay prefetches.
constexpr std::uint32_t kReplayPrefetch = 16;

// Apply-buffer floor, in ops (4 bytes each).
constexpr std::size_t kMinApplyCapacity = std::size_t{1} << 18;

// An apply op: the node id in the low 30 bits, the op in the top two.
// Up/down: a source of the node entered/left I. Infect/recover: the
// node's own transition to I/R.
constexpr std::uint32_t kNodeMask = (std::uint32_t{1} << 30) - 1;
constexpr std::uint32_t kOpUp = 0U << 30;
constexpr std::uint32_t kOpDown = 1U << 30;
constexpr std::uint32_t kOpInfect = 2U << 30;
constexpr std::uint32_t kOpRecover = 3U << 30;

// Calls fn(v) for entries [lo, hi) of the concatenation of the
// partition slices of `list`: slice p begins at list + (p << shift) and
// holds starts[p + 1] − starts[p] entries.
template <typename Fn>
void for_each_in_slices(const graph::NodeId* list, const std::size_t* starts,
                        std::size_t parts, std::size_t shift, std::size_t lo,
                        std::size_t hi, Fn&& fn) {
  std::size_t p = static_cast<std::size_t>(
      std::upper_bound(starts, starts + parts + 1, lo) - starts - 1);
  for (std::size_t at = lo; at < hi; ++at) {
    while (at >= starts[p + 1]) ++p;
    fn(list[(p << shift) + (at - starts[p])]);
  }
}

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
  std::vector<std::uint32_t> group_index(max_degree + 1, 0);
  for (const std::uint32_t degree : degrees) ++group_index[degree];
  for (std::size_t degree = 0; degree <= max_degree; ++degree) {
    const std::size_t count = group_index[degree];
    if (count == 0) continue;
    group_index[degree] = static_cast<std::uint32_t>(group_degrees_.size());
    group_degrees_.push_back(degree);
    group_sizes_.push_back(count);
    const auto k = static_cast<double>(degree);
    // Isolated nodes cannot catch or spread.
    group_lambda_over_k_.push_back(k > 0.0 ? params_.lambda(k) / k : 0.0);
    group_omega_over_k_.push_back(k > 0.0 ? params_.omega(k) / k : 0.0);
  }
  group_of_.resize(n);
  for (std::size_t v = 0; v < n; ++v) group_of_[v] = group_index[degrees[v]];
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
    util::require(n <= std::size_t{kNodeMask} + 1,
                  "AgentSimulation: the frontier engine supports at most "
                  "2^30 nodes");
    exposure_count_.assign(n, 0);
    infection_threshold_.assign(n, 0);
    active_pos_.assign(n, kNoPos);
    infected_pos_.assign(n, kNoPos);
    const std::size_t partition_nodes = std::max(
        kMinPartitionNodes,
        std::bit_ceil((n + kMaxApplyPartitions - 1) / kMaxApplyPartitions));
    partition_shift_ = static_cast<std::size_t>(
        std::countr_zero(partition_nodes));
    partitions_.assign((n + partition_nodes - 1) / partition_nodes,
                       Partition{});
    active_list_ = std::make_unique_for_overwrite<graph::NodeId[]>(n);
    infected_list_ = std::make_unique_for_overwrite<graph::NodeId[]>(n);
    chunk_transitions_.resize(max_chunks);
    for (auto& buffer : chunk_transitions_) buffer.reserve(kStepGrain);
    chunk_ops_.assign(max_chunks, 0);
    // Apply capacity: a round holds at least one chunk, which plans at
    // most kStepGrain self ops plus the kStepGrain largest degrees, and
    // no apply plans more than n + Σ degree.
    std::size_t degree_sum = 0;
    std::size_t top_sum = std::min(n, kStepGrain);
    std::size_t top_left = top_sum;
    for (std::size_t gi = group_degrees_.size(); gi-- > 0;) {
      degree_sum += group_sizes_[gi] * group_degrees_[gi];
      const std::size_t take = std::min(top_left, group_sizes_[gi]);
      top_sum += take * group_degrees_[gi];
      top_left -= take;
    }
    apply_capacity_ =
        std::min(n + degree_sum, std::max(kMinApplyCapacity, top_sum));
    util::require(apply_capacity_ <= 0xFFFFFFFFu,
                  "AgentSimulation: apply buffers exceed 2^32 ops");
    if (partitions_.size() > 1) {  // one partition emits in place
      apply_staging_ =
          std::make_unique_for_overwrite<std::uint32_t[]>(apply_capacity_);
    }
    apply_ops_ =
        std::make_unique_for_overwrite<std::uint32_t[]>(apply_capacity_);
    group_chunk_.assign(kMaxApplyGroups + 1, 0);
    group_slot_.assign(kMaxApplyGroups + 1, 0);
    bucket_bounds_.assign(kMaxApplyGroups * (kMaxApplyPartitions + 1), 0);
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
  move_nodes(nodes, Compartment::kInfected, "seed_infections");
}

void AgentSimulation::block_nodes(const std::vector<graph::NodeId>& nodes) {
  move_nodes(nodes, Compartment::kRecovered, "block_nodes");
}

void AgentSimulation::move_nodes(const std::vector<graph::NodeId>& nodes,
                                 Compartment to, const char* caller) {
  for (const graph::NodeId v : nodes) {
    util::require(v < num_nodes(),
                  std::string(caller) + ": node out of range");
  }
  if (!frontier()) {
    for (const graph::NodeId v : nodes) set_compartment(v, to);
    return;
  }
  // An apply takes each node at most once: keep every node's first
  // listing (a repeat is a no-op when applied in list order).
  std::vector<std::pair<graph::NodeId, std::size_t>> keyed;
  keyed.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) keyed.emplace_back(nodes[i], i);
  std::sort(keyed.begin(), keyed.end());
  std::vector<bool> first_listing(nodes.size(), false);
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      first_listing[keyed[i].second] = true;
    }
  }
  std::size_t chunks = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!first_listing[i]) continue;
    if (chunks == 0 || chunk_transitions_[chunks - 1].size() == kStepGrain) {
      chunk_transitions_[chunks].clear();
      chunk_edges_[chunks] = 0;
      chunk_ops_[chunks] = 0;
      ++chunks;
    }
    chunk_transitions_[chunks - 1].push_back({nodes[i], to});
    chunk_ops_[chunks - 1] += planned_ops(nodes[i]);
  }
  apply_chunks(chunks);
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
    m.frontier_active.set(static_cast<double>(active_count()));
    m.frontier_infected.set(static_cast<double>(infected_count_));
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
                  const double rate = lambda_over_k(v) * hazard;
                  if (draw.bernoulli(1.0 - std::exp(-rate * dt))) {
                    next = Compartment::kInfected;
                    weight = omega_over_k(v);
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
                weight = omega_over_k(v);
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
          std::size_t ops = 0;
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
                // Only a blocked spreader scatters.
                ops += state_.get(v) == Compartment::kInfected
                           ? planned_ops(v)
                           : 1;
                continue;
              }
              const std::uint64_t threshold = memo_threshold(v, edges);
              if (threshold > 0) {
                util::CounterRng draw(util::hash_mix(step_key, v));
                draw.next();  // the immunization draw the kernel took
                if (draw.below(threshold)) {
                  out.push_back({v, Compartment::kInfected});
                  ops += planned_ops(v);
                }
              }
            }
          }
          chunk_edges_[chunk] = edges;
          chunk_ops_[chunk] = ops;
        });
  } else {
    // Sparse steps: only the active set (susceptibles with an infected
    // exposure source) and the infected set can flip. Unvisited nodes
    // consume no draws in the dense engine either (p <= 0 Bernoulli
    // trials are free, zero-hazard nodes never reach their infection
    // draw), and every node owns its own stream, so skipping them
    // cannot shift anyone else's randomness. With no immunization
    // trial, the infection draw is each node's first. Both sets are
    // walked as the concatenation of their partition slices, chunked in
    // kStepGrain entries like one flat list.
    const std::size_t parts = partitions_.size();
    std::array<std::size_t, kMaxApplyPartitions + 1> active_at{};
    std::array<std::size_t, kMaxApplyPartitions + 1> infected_at{};
    for (std::size_t p = 0; p < parts; ++p) {
      active_at[p + 1] = active_at[p] + partitions_[p].active;
      infected_at[p + 1] = infected_at[p] + partitions_[p].infected;
    }
    const std::size_t active = active_at[parts];
    const std::size_t active_chunks =
        (active + kStepGrain - 1) / kStepGrain;
    util::parallel_for_chunks(
        std::size_t{0}, active, kStepGrain,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          const obs::TraceSpan chunk_span("sim.chunk");
          auto& out = chunk_transitions_[chunk];
          out.clear();
          std::uint64_t edges = 0;
          std::size_t ops = 0;
          for_each_in_slices(
              active_list_.get(), active_at.data(), parts, partition_shift_,
              lo, hi, [&](graph::NodeId v) {
                const std::uint64_t threshold = memo_threshold(v, edges);
                if (threshold > 0) {
                  util::CounterRng draw(util::hash_mix(step_key, v));
                  if (draw.below(threshold)) {
                    out.push_back({v, Compartment::kInfected});
                    ops += planned_ops(v);
                  }
                }
              });
          chunk_edges_[chunk] = edges;
          chunk_ops_[chunk] = ops;
        });
    used_chunks = active_chunks;
    if (t_block > 0) {
      const std::size_t infected = infected_at[parts];
      util::parallel_for_chunks(
          std::size_t{0}, infected, kStepGrain,
          [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
            auto& out = chunk_transitions_[active_chunks + chunk];
            out.clear();
            std::size_t ops = 0;
            for_each_in_slices(
                infected_list_.get(), infected_at.data(), parts,
                partition_shift_, lo, hi, [&](graph::NodeId v) {
                  util::CounterRng draw(util::hash_mix(step_key, v));
                  if (draw.below(t_block)) {
                    out.push_back({v, Compartment::kRecovered});
                    ops += planned_ops(v);
                  }
                });
            chunk_edges_[active_chunks + chunk] = 0;
            chunk_ops_[active_chunks + chunk] = ops;
          });
      used_chunks += (infected + kStepGrain - 1) / kStepGrain;
    }
  }

  // Decisions were made against the step-start state and each node
  // appears at most once, so applying them in chunk order reproduces
  // the dense engine's double-buffered swap.
  apply_chunks(used_chunks);
}

void AgentSimulation::apply_chunks(std::size_t chunks) {
  // Rounds: maximal runs of chunks whose planned ops fit the apply
  // buffers (every chunk fits on its own — see init_common). Usually
  // one round covers the whole apply.
  std::size_t first = 0;
  while (first < chunks) {
    std::size_t last = first;
    std::size_t ops = 0;
    while (last < chunks && ops + chunk_ops_[last] <= apply_capacity_) {
      ops += chunk_ops_[last++];
    }
    if (ops > 0) apply_round(first, last, ops);
    first = last;
  }
  for (std::size_t c = 0; c < chunks; ++c) edges_scanned_ += chunk_edges_[c];
}

void AgentSimulation::apply_round(std::size_t first, std::size_t last,
                                  std::size_t ops) {
  // Groups: contiguous runs of chunks of about ops / kMaxApplyGroups
  // planned ops each. Each group owns the op slots its chunks planned.
  const std::size_t target =
      std::max(kMinGroupOps, (ops + kMaxApplyGroups - 1) / kMaxApplyGroups);
  std::size_t groups = 0;
  std::size_t group_ops = 0;
  std::size_t slot = 0;
  group_chunk_[0] = first;
  group_slot_[0] = 0;
  for (std::size_t c = first; c < last; ++c) {
    if (group_ops >= target && groups + 1 < kMaxApplyGroups) {
      ++groups;
      group_chunk_[groups] = c;
      group_slot_[groups] = slot;
      group_ops = 0;
    }
    group_ops += chunk_ops_[c];
    slot += chunk_ops_[c];
  }
  ++groups;
  group_chunk_[groups] = last;
  group_slot_[groups] = slot;

  // Phase A, parallel over groups: read each transition's from-state,
  // decode the neighbor list once for a node that enters or leaves I,
  // and emit its ops — the node's own op, then one up/down op per
  // scatter target in CSR order — then counting-sort them into one
  // bucket per partition, each bucket in emission order. Reads only
  // step-start state; writes only the group's own slots and chunks.
  const std::size_t parts = partitions_.size();
  constexpr std::size_t kStride = kMaxApplyPartitions + 1;
  util::parallel_for_chunks(
      std::size_t{0}, groups, 1,
      [&](std::size_t g, std::size_t, std::size_t) {
        const obs::TraceSpan span("sim.scatter");
        // One partition: emission order is bucket order, so emit in place.
        std::uint32_t* const staged =
            (parts == 1 ? apply_ops_ : apply_staging_).get() + group_slot_[g];
        std::array<std::uint32_t, kMaxApplyPartitions> count{};
        std::size_t emitted = 0;
        for (std::size_t c = group_chunk_[g]; c < group_chunk_[g + 1]; ++c) {
          std::uint64_t edges = 0;
          for (const Transition& t : chunk_transitions_[c]) {
            const Compartment from = state_.get(t.node);
            if (from == t.to) continue;
            const bool infects = t.to == Compartment::kInfected;
            staged[emitted++] = t.node | (infects ? kOpInfect : kOpRecover);
            ++count[partition_of(t.node)];
            if (!infects && from != Compartment::kInfected) continue;
            const std::uint32_t op = infects ? kOpUp : kOpDown;
            const auto targets = neighbors_of(t.node);
            for (const graph::NodeId u : targets) {
              staged[emitted++] = u | op;
              ++count[partition_of(u)];
            }
            edges += targets.size();
          }
          chunk_edges_[c] += edges;
        }
        std::uint32_t* const bounds = bucket_bounds_.data() + g * kStride;
        std::array<std::uint32_t, kMaxApplyPartitions> cursor;
        auto at = static_cast<std::uint32_t>(group_slot_[g]);
        for (std::size_t p = 0; p < parts; ++p) {
          bounds[p] = cursor[p] = at;
          at += count[p];
        }
        bounds[parts] = at;
        if (parts == 1) return;
        std::uint32_t* const sorted = apply_ops_.get();
        for (std::size_t i = 0; i < emitted; ++i) {
          const std::uint32_t e = staged[i];
          sorted[cursor[partition_of(e & kNodeMask)]++] = e;
        }
      });

  // Phase B, parallel over partitions: each replays its buckets in
  // group order — the serial apply order restricted to its own nodes —
  // and is the only writer of those nodes' entries, so no atomics are
  // needed and the result is the same for every thread count.
  if (ops < kMinGroupOps) {  // one group: replay inline
    for (std::size_t p = 0; p < parts; ++p) replay_partition(p, groups);
  } else {
    util::parallel_for_chunks(
        std::size_t{0}, parts, 1,
        [&](std::size_t p, std::size_t, std::size_t) {
          const obs::TraceSpan span("sim.replay");
          replay_partition(p, groups);
        });
  }
  for (const Partition& part : partitions_) {
    susceptible_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(susceptible_count_) +
        part.delta.susceptible);
    infected_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(infected_count_) + part.delta.infected);
    ever_infected_ += static_cast<std::size_t>(part.delta.ever);
  }
}

void AgentSimulation::replay_partition(std::size_t p, std::size_t groups) {
  constexpr std::size_t kStride = kMaxApplyPartitions + 1;
  const std::uint32_t* const ops = apply_ops_.get();
  StepDelta d;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint32_t* const bounds = bucket_bounds_.data() + g * kStride;
    const std::uint32_t end = bounds[p + 1];
    for (std::uint32_t i = bounds[p]; i < end; ++i) {
      // The op stream is known ahead, so fetch the memo and count lines
      // of a later op while this one waits on its own (random) lines.
      if (i + kReplayPrefetch < end) {
        const std::uint32_t ahead = ops[i + kReplayPrefetch] & kNodeMask;
        __builtin_prefetch(&infection_threshold_[ahead], 1);
        __builtin_prefetch(&exposure_count_[ahead], 1);
      }
      const std::uint32_t e = ops[i];
      const graph::NodeId v = e & kNodeMask;
      switch (e & ~kNodeMask) {
        case kOpUp:
          // v's gather input changed: mark its memo stale.
          infection_threshold_[v] = kStaleThreshold;
          if (++exposure_count_[v] == 1 &&
              state_.get(v) == Compartment::kSusceptible) {
            active_add(v);
          }
          break;
        case kOpDown:
          infection_threshold_[v] = kStaleThreshold;
          if (--exposure_count_[v] == 0) active_remove_if_present(v);
          break;
        default: {
          // Phase A dropped transitions to the current compartment.
          const Compartment from = state_.get(v);
          if (from == Compartment::kSusceptible) {
            --d.susceptible;
            active_remove_if_present(v);
          } else if (from == Compartment::kInfected) {
            --d.infected;
            infected_remove(v);
            infected_weight_[v] = 0.0;
          }
          if ((e & ~kNodeMask) == kOpInfect) {
            ++d.infected;
            ++d.ever;  // counts re-seeding of recovered nodes too
            infected_add(v);
            infected_weight_[v] = omega_over_k(v);
            state_.set(v, Compartment::kInfected);
          } else {
            state_.set(v, Compartment::kRecovered);
          }
          break;
        }
      }
    }
  }
  partitions_[p].delta = d;
}

void AgentSimulation::set_compartment(graph::NodeId v, Compartment to) {
  const Compartment from = state_.get(v);
  if (from == to) return;
  if (from == Compartment::kSusceptible) --susceptible_count_;
  if (from == Compartment::kInfected) --infected_count_;
  if (to == Compartment::kInfected) {
    ++infected_count_;
    ++ever_infected_;  // counts re-seeding of recovered nodes too
  }
  state_.set(v, to);
  infected_weight_[v] = to == Compartment::kInfected ? omega_over_k(v) : 0.0;
}

std::uint64_t AgentSimulation::threshold_of(std::size_t v,
                                            double hazard) const {
  // The dense engine's infection trial: a zero hazard never reaches its
  // draw, otherwise bernoulli(1 − exp(−rate·dt)).
  if (!(hazard > 0.0)) return 0;
  const double rate = lambda_over_k(v) * hazard;
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

void AgentSimulation::active_add(graph::NodeId v) {
  const std::size_t p = partition_of(v);
  const auto at =
      static_cast<std::uint32_t>(slice_begin(p) + partitions_[p].active++);
  active_list_[at] = v;
  active_pos_[v] = at;
}

void AgentSimulation::active_remove_if_present(graph::NodeId v) {
  const std::uint32_t at = active_pos_[v];
  if (at == kNoPos) return;
  const std::size_t p = partition_of(v);
  const graph::NodeId last =
      active_list_[slice_begin(p) + --partitions_[p].active];
  active_list_[at] = last;
  active_pos_[last] = at;
  active_pos_[v] = kNoPos;
}

void AgentSimulation::infected_add(graph::NodeId v) {
  const std::size_t p = partition_of(v);
  const auto at =
      static_cast<std::uint32_t>(slice_begin(p) + partitions_[p].infected++);
  infected_list_[at] = v;
  infected_pos_[v] = at;
}

void AgentSimulation::infected_remove(graph::NodeId v) {
  const std::uint32_t at = infected_pos_[v];
  const std::size_t p = partition_of(v);
  const graph::NodeId last =
      infected_list_[slice_begin(p) + --partitions_[p].infected];
  infected_list_[at] = last;
  infected_pos_[last] = at;
  infected_pos_[v] = kNoPos;
}

void AgentSimulation::rebuild_frontier() {
  const std::size_t n = num_nodes();
  std::fill(active_pos_.begin(), active_pos_.end(), kNoPos);
  std::fill(infected_pos_.begin(), infected_pos_.end(), kNoPos);
  std::fill(partitions_.begin(), partitions_.end(), Partition{});
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
  std::size_t total = 0;
  for (const Partition& part : partitions_) total += part.active;
  return total;
}

std::vector<graph::NodeId> AgentSimulation::concat_slices(
    const graph::NodeId* list, std::uint32_t Partition::*length) const {
  std::vector<graph::NodeId> out;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const graph::NodeId* slice = list + slice_begin(p);
    out.insert(out.end(), slice, slice + partitions_[p].*length);
  }
  return out;
}

std::vector<graph::NodeId> AgentSimulation::active_nodes() const {
  util::require(frontier(), "active_nodes: frontier engine only");
  return concat_slices(active_list_.get(), &Partition::active);
}

std::vector<graph::NodeId> AgentSimulation::infected_nodes() const {
  util::require(frontier(), "infected_nodes: frontier engine only");
  return concat_slices(infected_list_.get(), &Partition::infected);
}

std::size_t AgentSimulation::partition_nodes() const {
  util::require(frontier(), "partition_nodes: frontier engine only");
  return std::size_t{1} << partition_shift_;
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
    infected_weight_[v] = c == Compartment::kInfected ? omega_over_k(v) : 0.0;
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
