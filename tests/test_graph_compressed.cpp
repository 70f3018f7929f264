// The compressed sharded CSR (GRAPHCSZ): exact round trips through
// save/load/decompress under single- and multi-shard layouts, format
// auto-detection, the streaming container writer, the streaming BA
// generator, the out-of-core resident-budget sweep, and the corruption
// contract — every damaged file fails with a typed util::IoError, never
// a partial or garbage graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "io/container.hpp"
#include "io/graph_binary.hpp"
#include "io/graph_compressed.hpp"
#include "io/graph_stream.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace {

using namespace rumor;
namespace fs = std::filesystem;

using rumor::test::temp_path;

graph::Graph sample_graph(std::size_t n = 600, std::size_t m = 3,
                          std::uint64_t seed = 11) {
  util::Xoshiro256 rng(seed);
  graph::Graph g = graph::barabasi_albert(n, m, rng);
  // Canonical layout, as graph-pack --compress and the generator emit.
  return graph::apply_node_order(g, graph::degree_sorted_order(g));
}

void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  ASSERT_EQ(a.directed(), b.directed());
  for (std::size_t v = 0; v < a.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    const auto na = a.neighbors(id);
    const auto nb = b.neighbors(id);
    ASSERT_EQ(na.size(), nb.size()) << "node " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "node " << v << " slot " << i;
    }
    ASSERT_EQ(a.in_degree(id), b.in_degree(id)) << "node " << v;
  }
}

TEST(GraphCompressed, RecordSizerMatchesEncoderByteForByte) {
  // The shard sizing pass trusts node_record_bytes to predict exactly
  // what append_node_record emits; any drift between the two (they
  // share the codec chooser) would corrupt shard boundaries.
  util::Xoshiro256 rng(424242);
  std::vector<std::uint8_t> blob;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t degree = rng.uniform_index(64);
    const std::uint32_t span = 2 + static_cast<std::uint32_t>(
                                       rng.uniform_index(1u << 25));
    std::vector<std::uint32_t> list(degree);
    for (auto& v : list) {
      v = static_cast<std::uint32_t>(rng.uniform_index(span));
    }
    if (trial % 2 == 0) std::sort(list.begin(), list.end());
    blob.clear();
    io::append_node_record(list, blob);
    ASSERT_EQ(blob.size(), io::node_record_bytes(list))
        << "trial " << trial << " degree " << degree;
  }
}

TEST(GraphCompressed, LargeGapListsChooseRiceAndShrink) {
  // Sorted lists with ~20-bit gaps — the regime that sank the varint
  // codec on BA-100M. The chooser must flag Rice (low prefix bit) and
  // beat the pure varint encoding.
  util::Xoshiro256 rng(5150);
  std::vector<std::uint32_t> list(128);
  std::uint32_t cur = 0;
  for (auto& v : list) {
    cur += 1u << 19 |
           static_cast<std::uint32_t>(rng.uniform_index(1u << 19));
    v = cur;
  }
  std::vector<std::uint8_t> record;
  io::append_node_record(list, record);
  std::uint64_t word = 0;
  ASSERT_GT(io::varint::get_uvarint(record.data(), record.size(), word), 0u);
  EXPECT_EQ(word >> 1, list.size());
  EXPECT_EQ(word & 1, 1u) << "Rice should win on 20-bit gaps";
  std::vector<std::uint8_t> pure_varint;
  io::varint::put_uvarint(pure_varint, list.size() << 1);
  io::varint::encode_deltas(list, 0, pure_varint);
  EXPECT_LT(record.size(), pure_varint.size());
}

TEST(GraphCompressed, RoundTripsExactlyAndBeatsPackedSize) {
  const graph::Graph g = sample_graph();
  const std::string zpath = temp_path("roundtrip.zg");
  const std::string ppath = temp_path("roundtrip.bin");
  io::save_graph_compressed(g, zpath);
  io::save_graph(g, ppath);

  const auto zg = io::load_compressed_graph(zpath);
  EXPECT_EQ(zg->num_nodes(), g.num_nodes());
  EXPECT_EQ(zg->num_arcs(), g.num_arcs());
  EXPECT_FALSE(zg->directed());
  EXPECT_EQ(zg->max_degree(),
            static_cast<std::size_t>(g.max_degree()));
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(zg->out_degree(static_cast<graph::NodeId>(v)),
              g.out_degree(static_cast<graph::NodeId>(v)));
  }
  expect_same_graph(zg->decompress(), g);

  // The canonical degree-sorted layout must compress well under the
  // packed format's 4 bytes/arc — the bench gate pins <= 60%, here we
  // just require a strict win even on a small graph.
  EXPECT_LT(fs::file_size(zpath), fs::file_size(ppath));
  fs::remove(zpath);
  fs::remove(ppath);
}

TEST(GraphCompressed, MultiShardLayoutIsIdenticalToSingleShard) {
  const graph::Graph g = sample_graph();
  const std::string one = temp_path("one_shard.zg");
  const std::string many = temp_path("many_shards.zg");
  io::save_graph_compressed(g, one);
  io::CompressOptions tiny;
  tiny.target_shard_bytes = 512;  // force many node-range shards
  io::save_graph_compressed(g, many, tiny);

  const auto zone = io::load_compressed_graph(one);
  const auto zmany = io::load_compressed_graph(many);
  EXPECT_EQ(zone->shard_count(), 1u);
  EXPECT_GT(zmany->shard_count(), 4u);
  expect_same_graph(zone->decompress(), zmany->decompress());
  fs::remove(one);
  fs::remove(many);
}

TEST(GraphCompressed, DirectedGraphsCarryInDegrees) {
  graph::GraphBuilder builder(5, /*directed=*/true);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(3, 2);
  builder.add_edge(4, 0);
  const graph::Graph g = std::move(builder).build();
  const std::string path = temp_path("directed.zg");
  io::save_graph_compressed(g, path);
  const auto zg = io::load_compressed_graph(path);
  EXPECT_TRUE(zg->directed());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(zg->in_degree(static_cast<graph::NodeId>(v)),
              g.in_degree(static_cast<graph::NodeId>(v)));
    EXPECT_EQ(zg->degree(static_cast<graph::NodeId>(v)),
              g.degree(static_cast<graph::NodeId>(v)));
  }
  expect_same_graph(zg->decompress(), g);
  fs::remove(path);
}

TEST(GraphCompressed, LoadGraphAnyAutoDetectsCompressed) {
  const graph::Graph g = sample_graph(200);
  const std::string path = temp_path("autodetect.zg");
  io::save_graph_compressed(g, path);
  EXPECT_TRUE(io::is_compressed_graph_file(path));
  expect_same_graph(io::load_graph_any(path, /*directed=*/false), g);

  const std::string packed = temp_path("autodetect.bin");
  io::save_graph(g, packed);
  EXPECT_FALSE(io::is_compressed_graph_file(packed));
  expect_same_graph(io::load_graph_any(packed, /*directed=*/false), g);
  fs::remove(path);
  fs::remove(packed);
}

TEST(GraphCompressed, StreamingWriterMatchesBatchWriterBytes) {
  // Same sections through both writers must parse identically (the
  // streaming file may differ in layout only by its reserved table).
  std::vector<std::byte> payload_a(100);
  std::vector<std::byte> payload_b(17);
  for (std::size_t i = 0; i < payload_a.size(); ++i) {
    payload_a[i] = static_cast<std::byte>(i * 7);
  }
  for (std::size_t i = 0; i < payload_b.size(); ++i) {
    payload_b[i] = static_cast<std::byte>(255 - i);
  }

  const std::string path = temp_path("stream.bin");
  {
    io::StreamingContainerWriter writer(path, "TESTKIND", 8);
    writer.add_section("alpha", payload_a);
    writer.add_section("beta", payload_b);
    EXPECT_EQ(writer.section_count(), 2u);
    writer.finish();
  }
  const auto reader = io::ContainerReader::open(path);
  EXPECT_EQ(reader->kind(), "TESTKIND");
  ASSERT_EQ(reader->sections().size(), 2u);
  const auto alpha = reader->section("alpha");
  ASSERT_EQ(alpha.size(), payload_a.size());
  EXPECT_EQ(std::memcmp(alpha.data(), payload_a.data(), alpha.size()), 0);
  const auto beta = reader->section("beta");
  ASSERT_EQ(beta.size(), payload_b.size());
  EXPECT_EQ(std::memcmp(beta.data(), payload_b.data(), beta.size()), 0);
  fs::remove(path);
}

TEST(GraphCompressed, StreamingWriterCleansUpWhenAbandoned) {
  const std::string path = temp_path("abandoned.bin");
  {
    io::StreamingContainerWriter writer(path, "TESTKIND", 2);
    std::vector<std::byte> payload(10);
    writer.add_section("alpha", payload);
    EXPECT_THROW(
        {
          writer.add_section("beta", payload);
          writer.add_section("gamma", payload);  // past max_sections
        },
        util::InvalidArgument);
    // No finish(): destructor must remove the temporary.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(GraphCompressed, TruncatedFileThrowsTypedError) {
  const graph::Graph g = sample_graph(200);
  const std::string path = temp_path("truncated.zg");
  io::save_graph_compressed(g, path);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW(io::load_compressed_graph(path), util::IoError);
  fs::remove(path);
}

TEST(GraphCompressed, BitflipThrowsTypedError) {
  const graph::Graph g = sample_graph(200);
  const std::string path = temp_path("bitflip.zg");
  io::save_graph_compressed(g, path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path)) - 20);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  EXPECT_THROW(io::load_compressed_graph(path), util::IoError);
  fs::remove(path);
}

TEST(GraphCompressed, CorruptVarintPayloadFailsDeepValidation) {
  // Hand-build a container whose CRCs are valid but whose blob decodes
  // to fewer arcs than the header claims — only validate_full catches
  // this class of damage.
  std::vector<std::uint64_t> boundaries = {0, 2};
  const std::string path = temp_path("liar.zg");
  {
    io::StreamingContainerWriter writer(path, io::kCompressedGraphKind, 4);
    io::write_compressed_meta(writer, 2, /*num_arcs=*/99, /*max_degree=*/1,
                              /*directed=*/false, boundaries);
    std::vector<std::uint8_t> blob;
    io::append_node_record(std::vector<std::uint32_t>{1}, blob);
    const std::size_t split = blob.size();
    io::append_node_record(std::vector<std::uint32_t>{0}, blob);
    std::vector<std::uint8_t> table;
    io::varint::put_uvarint(table, split);
    io::varint::put_uvarint(table, blob.size() - split);
    std::vector<std::byte> payload(table.size() + blob.size());
    std::memcpy(payload.data(), table.data(), table.size());
    std::memcpy(payload.data() + table.size(), blob.data(), blob.size());
    writer.add_section(io::shard_section_name(0), payload);
    writer.finish();
  }
  EXPECT_THROW(io::load_compressed_graph(path), util::IoError);
  // Shallow load must succeed — the structure is fine, the claim isn't.
  EXPECT_NO_THROW(io::load_compressed_graph(path, /*deep_validate=*/false));
  fs::remove(path);
}

TEST(GraphCompressed, ResidentBudgetDropsAndRecovers) {
  const graph::Graph g = sample_graph(2000, 4);
  const std::string path = temp_path("budget.zg");
  io::CompressOptions tiny;
  tiny.target_shard_bytes = 2048;  // many shards to sweep over
  io::save_graph_compressed(g, path, tiny);
  const auto zg = io::load_compressed_graph(path);
  ASSERT_GT(zg->shard_count(), 4u);

  const std::uint64_t total = zg->resident_estimate();
  zg->set_resident_budget(total / 4);
  graph::NeighborScratch scratch;
  for (std::size_t v = 0; v < zg->num_nodes(); ++v) {
    zg->decode_neighbors(static_cast<graph::NodeId>(v), scratch);
  }
  const std::uint64_t dropped = zg->enforce_budget();
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(zg->shards_dropped(), 0u);
  EXPECT_LE(zg->resident_estimate(), total / 4);

  // Dropped pages fault back in transparently: the graph still decodes
  // exactly (validate_full checks every list and the arc count).
  EXPECT_EQ(zg->validate_full() > 0, true);
  expect_same_graph(zg->decompress(), g);
  fs::remove(path);
}

TEST(GraphCompressed, StreamingBaGeneratorMatchesItsOwnMetadata) {
  const std::string path = temp_path("ba_stream.zg");
  io::StreamBaOptions options;
  options.num_nodes = 5000;
  options.edges_per_node = 3;
  options.seed = 42;
  options.target_shard_bytes = 16384;
  const io::StreamBaResult result = io::generate_ba_compressed(path, options);
  EXPECT_EQ(result.num_nodes, 5000u);
  EXPECT_EQ(result.num_edges, 6u + (5000u - 4u) * 3u);
  EXPECT_EQ(result.num_arcs, 2 * result.num_edges);
  EXPECT_GT(result.shard_count, 1u);
  EXPECT_EQ(result.file_bytes, fs::file_size(path));

  const auto zg = io::load_compressed_graph(path);
  EXPECT_EQ(zg->num_nodes(), result.num_nodes);
  EXPECT_EQ(zg->num_arcs(), result.num_arcs);
  EXPECT_EQ(zg->max_degree(), result.max_degree);

  // Canonical layout: degrees non-increasing in node id.
  for (std::size_t v = 1; v < 200; ++v) {
    EXPECT_LE(zg->out_degree(static_cast<graph::NodeId>(v)),
              zg->out_degree(static_cast<graph::NodeId>(v - 1)));
  }
  // Every node attaches m edges, so min degree is m.
  std::size_t min_degree = zg->num_nodes();
  for (std::size_t v = 0; v < zg->num_nodes(); ++v) {
    min_degree =
        std::min(min_degree, zg->out_degree(static_cast<graph::NodeId>(v)));
  }
  EXPECT_GE(min_degree, options.edges_per_node);
  // No spill temporaries left behind.
  EXPECT_FALSE(fs::exists(path + ".spill.00000"));
  fs::remove(path);
}

TEST(GraphCompressed, StreamingBaGeneratorIsDeterministic) {
  const std::string a = temp_path("ba_det_a.zg");
  const std::string b = temp_path("ba_det_b.zg");
  io::StreamBaOptions options;
  options.num_nodes = 1200;
  options.edges_per_node = 2;
  options.seed = 7;
  io::generate_ba_compressed(a, options);
  io::generate_ba_compressed(b, options);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(fa)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(fb)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  fs::remove(a);
  fs::remove(b);
}

}  // namespace
