// Packed binary CSR graphs: lossless round trips (mapped and owned),
// format auto-detection, and the from_csr structural validation that
// keeps a CRC-valid but semantically corrupt file from becoming
// undefined behavior.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "io/container.hpp"
#include "io/graph_binary.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace rumor::io {
namespace {

namespace fs = std::filesystem;

using rumor::test::temp_path;

void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_EQ(a.directed(), b.directed());
  for (std::size_t v = 0; v < a.num_nodes(); ++v) {
    const auto av = a.neighbors(static_cast<graph::NodeId>(v));
    const auto bv = b.neighbors(static_cast<graph::NodeId>(v));
    ASSERT_EQ(av.size(), bv.size()) << "node " << v;
    for (std::size_t j = 0; j < av.size(); ++j) {
      EXPECT_EQ(av[j], bv[j]) << "node " << v << " slot " << j;
    }
    EXPECT_EQ(a.in_degree(static_cast<graph::NodeId>(v)),
              b.in_degree(static_cast<graph::NodeId>(v)));
  }
}

TEST(IoGraphBinary, RoundTripsUndirectedGraph) {
  util::Xoshiro256 rng(11);
  const auto g = graph::barabasi_albert(400, 3, rng);
  const std::string path = temp_path("ba.bin");
  save_graph(g, path);
  expect_same_graph(g, load_graph(path, GraphLoad::kMapped));
  expect_same_graph(g, load_graph(path, GraphLoad::kOwned));
  fs::remove(path);
}

TEST(IoGraphBinary, RoundTripsDirectedGraph) {
  graph::GraphBuilder builder(50, /*directed=*/true);
  util::Xoshiro256 rng(5);
  for (int e = 0; e < 300; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(50));
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(50));
    if (u != v) builder.add_edge(u, v);
  }
  const auto g = std::move(builder).build(/*deduplicate=*/true);
  const std::string path = temp_path("directed.bin");
  save_graph(g, path);
  expect_same_graph(g, load_graph(path));
  fs::remove(path);
}

TEST(IoGraphBinary, SaveLoadSaveIsByteIdentical) {
  util::Xoshiro256 rng(13);
  const auto g = graph::erdos_renyi(300, 0.02, rng);
  const std::string first = temp_path("first.bin");
  const std::string second = temp_path("second.bin");
  save_graph(g, first);
  save_graph(load_graph(first), second);
  std::ifstream fa(first, std::ios::binary), fb(second, std::ios::binary);
  const std::string a((std::istreambuf_iterator<char>(fa)),
                      std::istreambuf_iterator<char>());
  const std::string b((std::istreambuf_iterator<char>(fb)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(a, b);
  fs::remove(first);
  fs::remove(second);
}

TEST(IoGraphBinary, LoadGraphAnyDetectsFormatByMagic) {
  const std::string text = temp_path("edges.txt");
  std::ofstream(text) << "0 1\n1 2\n2 0\n";
  const auto from_text = load_graph_any(text, /*directed=*/false);
  EXPECT_EQ(from_text.num_nodes(), 3u);

  const std::string binary = temp_path("edges.bin");
  save_graph(from_text, binary);
  expect_same_graph(from_text, load_graph_any(binary, /*directed=*/false));
  fs::remove(text);
  fs::remove(binary);
}

// Build a GRAPHCSR container by hand so each structural invariant can
// be violated with valid CRCs — exactly what a buggy writer or a
// bit-rotted-but-rehashed file would present.
std::vector<std::byte> forged_graph(std::vector<std::uint64_t> offsets,
                                    std::vector<std::uint32_t> targets,
                                    std::vector<std::uint32_t> indeg,
                                    std::uint64_t n, std::uint64_t arcs) {
  ContainerWriter writer(kGraphKind);
  ByteWriter meta;
  meta.u64(n);
  meta.u64(arcs);
  meta.u8(1);  // directed, so in-degrees are independent of offsets
  writer.add_section("graph.meta", std::move(meta));
  // The array sections are raw elements (no count prefix) — the counts
  // come from graph.meta, mirroring save_graph's layout.
  ByteWriter off;
  for (const std::uint64_t v : offsets) off.u64(v);
  writer.add_section("graph.offsets", std::move(off));
  ByteWriter tgt;
  for (const std::uint32_t v : targets) tgt.u32(v);
  writer.add_section("graph.targets", std::move(tgt));
  ByteWriter ind;
  for (const std::uint32_t v : indeg) ind.u32(v);
  writer.add_section("graph.indeg", std::move(ind));
  return writer.serialize();
}

void expect_rejected(std::vector<std::byte> bytes, const char* why) {
  const std::string path = temp_path("forged.bin");
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW(load_graph(path), util::IoError) << why;
  fs::remove(path);
}

TEST(IoGraphBinary, StructurallyInvalidFilesAreRejected) {
  // Baseline: 2 nodes, arcs 0→1 and 1→0; each case breaks one invariant.
  expect_rejected(forged_graph({0, 1, 2}, {1, 5}, {1, 1}, 2, 2),
                  "target node id out of range");
  expect_rejected(forged_graph({0, 2, 1}, {1, 0}, {1, 1}, 2, 2),
                  "non-monotonic offsets");
  expect_rejected(forged_graph({1, 1, 2}, {1, 0}, {1, 1}, 2, 2),
                  "offsets not starting at zero");
  expect_rejected(forged_graph({0, 1, 1}, {1, 0}, {1, 1}, 2, 2),
                  "final offset below the arc count");
  expect_rejected(forged_graph({0, 1, 2}, {1, 0}, {1, 2}, 2, 2),
                  "in-degree sum above the arc count");
  expect_rejected(forged_graph({0, 1}, {1, 0}, {1, 1}, 2, 2),
                  "offset array shorter than num_nodes + 1");
}

TEST(IoGraphBinary, WrongKindRejected) {
  ContainerWriter writer("CASCADE");
  ByteWriter t;
  t.vec(std::vector<double>{0.0});
  writer.add_section("cascade.t", std::move(t));
  const std::string path = temp_path("wrongkind.bin");
  writer.write_file(path);
  EXPECT_THROW(load_graph(path), util::IoError);
  fs::remove(path);
}

}  // namespace
}  // namespace rumor::io
