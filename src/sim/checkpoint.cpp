#include "sim/checkpoint.hpp"

#include <cstring>

#include "util/error.hpp"

namespace rumor::sim {

void append_agent_checkpoint(io::ContainerWriter& writer,
                             const AgentSimulation& simulation) {
  const AgentCheckpoint c = simulation.checkpoint();

  io::ByteWriter meta;
  // The representation-agnostic accessors keep the graph fingerprint
  // (nodes, arcs, directedness) identical whether the simulation runs
  // on a packed or a compressed graph — which is what lets a checkpoint
  // written against one format resume against the other.
  meta.u64(simulation.num_nodes());
  meta.u64(simulation.num_arcs());
  meta.u8(simulation.directed() ? 1 : 0);
  meta.f64(simulation.params().dt);
  meta.u64(c.seed);
  meta.u64(c.step_count);
  meta.f64(c.time);
  for (const std::uint64_t word : c.rng_state) meta.u64(word);
  meta.u64(c.ever_infected);
  writer.add_section("agent.meta", std::move(meta));

  io::ByteWriter state;
  state.u64(c.state.size());
  for (const Compartment compartment : c.state) {
    state.u8(static_cast<std::uint8_t>(compartment));
  }
  writer.add_section("agent.state", std::move(state));
}

void restore_agent_checkpoint(const io::ContainerReader& reader,
                              AgentSimulation& simulation) {
  auto fail = [&](const std::string& why) -> void {
    throw util::IoError("container " + reader.origin() +
                        ": agent checkpoint " + why);
  };

  io::ByteReader meta = reader.reader("agent.meta");
  const std::uint64_t num_nodes = meta.u64();
  const std::uint64_t num_arcs = meta.u64();
  const bool directed = meta.u8() != 0;
  const double dt = meta.f64();

  AgentCheckpoint c;
  c.seed = meta.u64();
  c.step_count = meta.u64();
  c.time = meta.f64();
  for (std::uint64_t& word : c.rng_state) word = meta.u64();
  c.ever_infected = meta.u64();
  meta.expect_end();

  if (num_nodes != simulation.num_nodes() ||
      num_arcs != simulation.num_arcs() ||
      directed != simulation.directed()) {
    fail("was written for a different graph (" + std::to_string(num_nodes) +
         " nodes / " + std::to_string(num_arcs) + " arcs, simulation has " +
         std::to_string(simulation.num_nodes()) + " / " +
         std::to_string(simulation.num_arcs()) + ")");
  }
  if (std::memcmp(&dt, &simulation.params().dt, sizeof(double)) != 0) {
    fail("was written with dt = " + std::to_string(dt) +
         ", simulation uses dt = " + std::to_string(simulation.params().dt));
  }
  if (c.rng_state[0] == 0 && c.rng_state[1] == 0 && c.rng_state[2] == 0 &&
      c.rng_state[3] == 0) {
    fail("has an all-zero RNG state");
  }

  io::ByteReader state = reader.reader("agent.state");
  const std::uint64_t count = state.u64();
  if (count != num_nodes) {
    fail("state section has " + std::to_string(count) + " nodes, expected " +
         std::to_string(num_nodes));
  }
  c.state.reserve(count);
  for (std::uint64_t v = 0; v < count; ++v) {
    const std::uint8_t raw = state.u8();
    if (raw > static_cast<std::uint8_t>(Compartment::kRecovered)) {
      fail("state section holds invalid compartment value " +
           std::to_string(raw));
    }
    c.state.push_back(static_cast<Compartment>(raw));
  }
  state.expect_end();

  // An `agent.hazard` section from an older writer is left unread (see
  // checkpoint.hpp): restore() rebuilds the threshold memo by gathering.
  simulation.restore(c);
}

void save_agent_checkpoint(const AgentSimulation& simulation,
                           const std::string& path) {
  io::ContainerWriter writer(kAgentRunKind);
  append_agent_checkpoint(writer, simulation);
  writer.write_file(path);
}

void load_agent_checkpoint(AgentSimulation& simulation,
                           const std::string& path) {
  const auto reader = io::ContainerReader::open(path);
  reader->require_kind(kAgentRunKind);
  restore_agent_checkpoint(*reader, simulation);
}

}  // namespace rumor::sim
