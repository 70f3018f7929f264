// Bit-packed compartment storage for the agent-based simulators.
//
// The frontier engine keeps its hot state as a structure of arrays; the
// compartment array is the one read on every visit, so it is packed at
// 2 bits per node (32 nodes per 64-bit word) — a million-node graph
// fits its entire compartment state in 250 KB, i.e. inside L2, where
// the old one-byte-per-node layout spilled to L3.
//
// Thread-safety contract: concurrent set() calls are race-free only
// when writers are partitioned into node ranges aligned to kNodesPerWord
// (the agent step grain of 2048 is — see the static_assert in
// agent_sim.cpp). Concurrent get() with no writer is always safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kern/kern.hpp"

namespace rumor::sim {

enum class Compartment : std::uint8_t {
  kSusceptible = 0,
  kInfected = 1,
  kRecovered = 2,
};

class PackedCompartments {
 public:
  static constexpr std::size_t kBitsPerNode = 2;
  static constexpr std::size_t kNodesPerWord = 64 / kBitsPerNode;

  PackedCompartments() = default;
  explicit PackedCompartments(std::size_t size, Compartment fill) {
    assign(size, fill);
  }

  void assign(std::size_t size, Compartment fill) {
    size_ = size;
    const auto two_bit = static_cast<std::uint64_t>(fill) & 0x3ULL;
    std::uint64_t word = 0;
    for (std::size_t slot = 0; slot < kNodesPerWord; ++slot) {
      word |= two_bit << (slot * kBitsPerNode);
    }
    words_.assign((size + kNodesPerWord - 1) / kNodesPerWord, word);
  }

  std::size_t size() const { return size_; }

  /// The packed words (kNodesPerWord nodes each), for word-level
  /// kernels such as kern::Ops::census2 and sweep_draws.
  const std::uint64_t* words() const { return words_.data(); }

  Compartment get(std::size_t v) const {
    const std::uint64_t word = words_[v / kNodesPerWord];
    const std::size_t shift = (v % kNodesPerWord) * kBitsPerNode;
    return static_cast<Compartment>((word >> shift) & 0x3ULL);
  }

  void set(std::size_t v, Compartment c) {
    std::uint64_t& word = words_[v / kNodesPerWord];
    const std::size_t shift = (v % kNodesPerWord) * kBitsPerNode;
    word = (word & ~(0x3ULL << shift)) |
           (static_cast<std::uint64_t>(c) & 0x3ULL) << shift;
  }

  void swap(PackedCompartments& other) noexcept {
    words_.swap(other.words_);
    std::swap(size_, other.size_);
  }

  /// Full census in one pass over the packed words via the dispatched
  /// popcount kernel: {infected, recovered} counts (susceptible is
  /// size() minus both). Padding slots of the last word are masked off
  /// by the kernel, so assign()'s fill pattern there cannot leak in.
  void census(std::size_t& infected, std::size_t& recovered) const {
    std::uint64_t counts[2];
    kern::ops().census2(words_.data(), size_, counts);
    infected = static_cast<std::size_t>(counts[0]);
    recovered = static_cast<std::size_t>(counts[1]);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace rumor::sim
