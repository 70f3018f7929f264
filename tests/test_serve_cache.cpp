// GraphCache invariants the daemon depends on: LRU eviction ordering,
// pins blocking eviction, (mtime, size) staleness detection, and the
// exact "N concurrent gets = 1 miss + N-1 hits" coalescing guarantee
// the acceptance test re-checks end to end. The concurrent stress case
// is the one the TSan CI leg exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "io/graph_binary.hpp"
#include "io/graph_compressed.hpp"
#include "serve/graph_cache.hpp"
#include "serve/metrics.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

#include "temp_path.hpp"

namespace rumor::serve {
namespace {

namespace fs = std::filesystem;

class ServeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = test::temp_path("cache");
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Write a packed graph with `nodes` nodes; node count identifies
  /// which file a returned pin came from.
  std::string make_graph(const std::string& name, std::size_t nodes,
                         std::uint64_t seed = 7) {
    util::Xoshiro256 rng(seed);
    const auto g = graph::barabasi_albert(nodes, 2, rng);
    const std::string path = (root_ / name).string();
    io::save_graph(g, path);
    return path;
  }

  /// Same generator, written as a compressed GRAPHCSZ container.
  std::string make_compressed_graph(const std::string& name,
                                    std::size_t nodes,
                                    std::uint64_t seed = 7) {
    util::Xoshiro256 rng(seed);
    const auto g = graph::barabasi_albert(nodes, 2, rng);
    const auto canonical =
        graph::apply_node_order(g, graph::degree_sorted_order(g));
    const std::string path = (root_ / name).string();
    io::save_graph_compressed(canonical, path);
    return path;
  }

  // Counter deltas against the process-global registry.
  struct CounterBase {
    std::uint64_t hits, misses, evictions;
  };
  static CounterBase snapshot() {
    return {serve_metrics().cache_hits.value(),
            serve_metrics().cache_misses.value(),
            serve_metrics().cache_evictions.value()};
  }

  fs::path root_;
};

TEST_F(ServeCacheTest, MissThenHitSharesOneValue) {
  GraphCache cache(4);
  const std::string path = make_graph("a.bin", 120);
  const CounterBase base = snapshot();
  const auto first = cache.get(path, false);
  const auto second = cache.get(path, false);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->graph().num_nodes(), 120u);
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 1);
  EXPECT_EQ(serve_metrics().cache_hits.value(), base.hits + 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ServeCacheTest, DirectednessIsPartOfTheKey) {
  GraphCache cache(4);
  const std::string path = make_graph("a.bin", 60);
  const CounterBase base = snapshot();
  (void)cache.get(path, false);
  (void)cache.get(path, true);  // same file, different key: a miss
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(ServeCacheTest, EvictsLeastRecentlyTouchedFirst) {
  GraphCache cache(2);
  const std::string a = make_graph("a.bin", 50);
  const std::string b = make_graph("b.bin", 60);
  const std::string c = make_graph("c.bin", 70);
  const CounterBase base = snapshot();
  (void)cache.get(a, false);
  (void)cache.get(b, false);
  (void)cache.get(a, false);  // touch a: b is now the LRU entry
  (void)cache.get(c, false);  // over capacity -> evict b, keep a
  EXPECT_EQ(serve_metrics().cache_evictions.value(), base.evictions + 1);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get(a, false);  // survived: a hit
  EXPECT_EQ(serve_metrics().cache_hits.value(), base.hits + 2);
  (void)cache.get(b, false);  // evicted: a fresh miss
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 4);
}

TEST_F(ServeCacheTest, PinnedEntriesAreNeverEvicted) {
  GraphCache cache(1);
  const std::string a = make_graph("a.bin", 50);
  const std::string b = make_graph("b.bin", 60);
  const std::string c = make_graph("c.bin", 70);
  auto pin = cache.get(a, false);  // hold the pin across further loads
  (void)cache.get(b, false);
  (void)cache.get(c, false);
  const CounterBase base = snapshot();
  auto again = cache.get(a, false);  // still resident: a hit
  EXPECT_EQ(again.get(), pin.get());
  EXPECT_EQ(serve_metrics().cache_hits.value(), base.hits + 1);
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses);

  // Releasing the pin makes the entry evictable on the next load.
  again.reset();
  pin.reset();
  (void)cache.get(b, false);
  EXPECT_LE(cache.size(), 2u);  // sweep ran; a is no longer protected
  (void)cache.get(a, false);
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 2);
}

TEST_F(ServeCacheTest, ClearDropsOnlyUnpinnedEntries) {
  GraphCache cache(4);
  const std::string a = make_graph("a.bin", 50);
  const std::string b = make_graph("b.bin", 60);
  auto pin = cache.get(a, false);
  (void)cache.get(b, false);
  cache.clear();
  EXPECT_EQ(cache.size(), 1u);  // the pinned entry stays resident
  const CounterBase base = snapshot();
  (void)cache.get(a, false);
  EXPECT_EQ(serve_metrics().cache_hits.value(), base.hits + 1);
}

TEST_F(ServeCacheTest, DetectsFileReplacedOnDisk) {
  GraphCache cache(4);
  const std::string path = make_graph("a.bin", 80);
  const auto before = cache.get(path, false);
  EXPECT_EQ(before->graph().num_nodes(), 80u);

  // Re-pack a different graph at the same path (different size, so the
  // (mtime, size) identity changes even on coarse-mtime filesystems).
  make_graph("a.bin", 200, /*seed=*/9);
  const CounterBase base = snapshot();
  const auto after = cache.get(path, false);
  EXPECT_EQ(after->graph().num_nodes(), 200u);
  EXPECT_EQ(serve_metrics().cache_evictions.value(), base.evictions + 1);
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 1);
  // The old pin stays valid: invalidation dropped the cache's
  // reference, not the mapping.
  EXPECT_EQ(before->graph().num_nodes(), 80u);
}

TEST_F(ServeCacheTest, FailedLoadsAreNotCached) {
  GraphCache cache(4);
  const std::string path = (root_ / "missing.bin").string();
  EXPECT_THROW((void)cache.get(path, false), util::IoError);
  EXPECT_EQ(cache.size(), 0u);
  // The key is not poisoned: once the file exists the load succeeds.
  make_graph("missing.bin", 40);
  EXPECT_EQ(cache.get(path, false)->graph().num_nodes(), 40u);
}

TEST_F(ServeCacheTest, ConcurrentColdGetsCountOneMissRestHits) {
  GraphCache cache(4);
  const std::string path = make_graph("a.bin", 300);
  const CounterBase base = snapshot();

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const CachedGraph>> pins(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start as simultaneously as possible
      pins[i] = cache.get(path, false);
    });
  }
  for (auto& t : threads) t.join();

  // Whether a thread coalesced onto the in-flight load or arrived
  // after it published, the file was read exactly once.
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 1);
  EXPECT_EQ(serve_metrics().cache_hits.value(),
            base.hits + (kThreads - 1));
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(pins[i].get(), pins[0].get());
  }
}

TEST_F(ServeCacheTest, ByteBudgetEvictsLruUntilResidentFits) {
  // Size the budget from a probe load so the test tracks the real
  // footprint formula instead of hard-coding it.
  const std::string probe = make_graph("probe.bin", 200);
  std::uint64_t one_graph = 0;
  {
    GraphCache sizer(4);
    one_graph = sizer.get(probe, false)->resident_bytes();
  }
  ASSERT_GT(one_graph, 0u);

  GraphCache::Options options;
  options.resident_budget_bytes = 2 * one_graph + one_graph / 2;  // fits 2
  GraphCache cache(options);
  const std::string a = make_graph("a.bin", 200, 1);
  const std::string b = make_graph("b.bin", 200, 2);
  const std::string c = make_graph("c.bin", 200, 3);
  const CounterBase base = snapshot();
  (void)cache.get(a, false);
  (void)cache.get(b, false);
  (void)cache.get(a, false);  // touch a: b is the LRU entry
  (void)cache.get(c, false);  // over budget -> evict b
  EXPECT_EQ(serve_metrics().cache_evictions.value(), base.evictions + 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.resident_bytes(), options.resident_budget_bytes);
  (void)cache.get(a, false);  // survived
  EXPECT_EQ(serve_metrics().cache_hits.value(), base.hits + 2);
  (void)cache.get(b, false);  // evicted: a fresh miss
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 4);
}

TEST_F(ServeCacheTest, MinEntriesFloorKeepsAnOverBudgetGraphResident) {
  GraphCache::Options options;
  options.resident_budget_bytes = 1;  // smaller than any real graph
  GraphCache cache(options);
  const std::string path = make_graph("huge.bin", 300);
  const CounterBase base = snapshot();
  (void)cache.get(path, false);
  // One graph over budget: the floor keeps it instead of thrashing.
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.get(path, false);
  EXPECT_EQ(serve_metrics().cache_hits.value(), base.hits + 1);
  EXPECT_EQ(serve_metrics().cache_misses.value(), base.misses + 1);
}

TEST_F(ServeCacheTest, CompressedFilesAreAdmittedWithoutDecompression) {
  GraphCache cache(4);
  const std::string zpath = make_compressed_graph("a.zg", 400);
  const auto pin = cache.get(zpath, false);
  ASSERT_TRUE(pin->is_compressed());
  EXPECT_THROW((void)pin->graph(), util::InvalidArgument);
  EXPECT_EQ(pin->compressed->num_nodes(), 400u);
  // The budget charges the compressed footprint, which beats the
  // packed CSR estimate for the same graph.
  const std::string packed = make_graph("a.bin", 400);
  const auto packed_pin = cache.get(packed, false);
  EXPECT_LT(pin->resident_bytes(), packed_pin->resident_bytes());
  EXPECT_EQ(pin->resident_bytes(), pin->compressed->total_bytes());
}

TEST_F(ServeCacheTest, ConcurrentGetsAndEvictionsStayConsistent) {
  GraphCache cache(2);  // smaller than the working set: constant churn
  constexpr int kKeys = 4;
  std::vector<std::string> paths;
  std::vector<std::size_t> nodes;
  for (int k = 0; k < kKeys; ++k) {
    nodes.push_back(40 + 10 * static_cast<std::size_t>(k));
    paths.push_back(
        make_graph("g" + std::to_string(k) + ".bin", nodes.back()));
  }

  constexpr int kThreads = 6;
  constexpr int kIters = 200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t * 7 + i * 3) % kKeys;
        const auto pin = cache.get(paths[static_cast<std::size_t>(k)], false);
        if (pin->graph().num_nodes() != nodes[static_cast<std::size_t>(k)]) {
          failed.store(true);
        }
      }
    });
  }
  std::thread sweeper([&] {
    for (int i = 0; i < 50; ++i) {
      cache.clear();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  sweeper.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache.size(), static_cast<std::size_t>(kKeys));
}

}  // namespace
}  // namespace rumor::serve
