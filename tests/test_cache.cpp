// Tests for the set-associative LRU cache model.
//
// ReferenceLru below is the plainest exact LRU: one {tag, last-use stamp,
// valid} entry per way and a scan of the set per access.  The library's
// recency-ordered tag rows must agree with it access for access at every
// geometry, and CacheHitModel must reproduce its hit rate exactly (DESIGN.md
// section 9, item 4).  The TSan job builds only the default clone of the
// replay kernel, the other jobs the AVX2 one on AVX2 hosts, so CI pins both
// against this oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpu/cache.hpp"
#include "gpu/characterize.hpp"
#include "gpu/config.hpp"

// GCC pairs the inlined replacement operator new with std::free and reports a
// false mismatch; the replacement new below really does malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting allocator: the counter is read around the calls under test.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coolpim::gpu {
namespace {

/// The stamp-scan LRU: each way keeps its tag, a valid bit and the tick of
/// its last use; a hit restamps the way, a miss fills an invalid way or
/// evicts the valid way with the oldest stamp.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes)
      : sets_{capacity_bytes / (ways * line_bytes)},
        ways_{ways},
        line_{line_bytes},
        lines_(sets_ * ways_) {}

  bool access(std::uint64_t address) {
    const std::uint64_t block = address / line_;
    const std::size_t set = static_cast<std::size_t>(block) & (sets_ - 1);
    const std::uint64_t tag = block / sets_;
    Line* base = &lines_[set * ways_];
    ++tick_;

    Line* victim = base;
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = tick_;
        ++hits_;
        return true;
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.lru < victim->lru) {
        victim = &line;
      }
    }
    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t address) const {
    const std::uint64_t block = address / line_;
    const std::size_t set = static_cast<std::size_t>(block) & (sets_ - 1);
    const std::uint64_t tag = block / sets_;
    const Line* base = &lines_[set * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  void flush() {
    for (auto& line : lines_) line.valid = false;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  struct Line {
    std::uint64_t tag{0};
    std::uint64_t lru{0};
    bool valid{false};
  };

  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_;
  std::vector<Line> lines_;
  std::uint64_t tick_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

TEST(CacheTest, Geometry) {
  const Cache c{1024 * 1024, 16, 64};
  EXPECT_EQ(c.num_sets(), 1024u);
  EXPECT_EQ(c.ways(), 16u);
  EXPECT_EQ(c.line_bytes(), 64u);
}

TEST(CacheTest, InvalidGeometryThrows) {
  EXPECT_THROW((Cache{1000, 16, 64}), ConfigError);         // not a whole set count
  EXPECT_THROW((Cache{0, 1, 64}), ConfigError);             // empty cache
  EXPECT_THROW((Cache{3 * 16 * 64, 16, 64}), ConfigError);  // sets not a power of two
  EXPECT_THROW((Cache{1024, 0, 64}), ConfigError);          // zero ways
  EXPECT_THROW((Cache{1024, 16, 0}), ConfigError);          // zero line size
  EXPECT_THROW((Cache{16 * 48, 16, 48}), ConfigError);      // line not a power of two

  // GpuConfig checks positivity before it divides: these used to die with
  // SIGFPE instead of throwing.
  const auto config_throws = [](auto edit) {
    GpuConfig cfg;
    edit(cfg);
    EXPECT_THROW(cfg.validate(), ConfigError);
  };
  config_throws([](GpuConfig& c) { c.line_bytes = 0; });
  config_throws([](GpuConfig& c) { c.line_bytes = 48; });
  config_throws([](GpuConfig& c) { c.l1_ways = 0; });
  config_throws([](GpuConfig& c) { c.l2_ways = 0; });
  config_throws([](GpuConfig& c) { c.threads_per_warp = 0; });
  EXPECT_NO_THROW(GpuConfig{}.validate());

  // Tags are 32 bits wide: one set of 64-byte lines holds tags up to 2^32 - 2.
  Cache c{64, 1, 64};
  const std::uint64_t widest = (std::uint64_t{1} << 32) - 2;
  EXPECT_FALSE(c.access(widest * 64));
  EXPECT_TRUE(c.contains(widest * 64));
  EXPECT_THROW(c.access((widest + 1) * 64), ConfigError);
  EXPECT_THROW((void)c.contains((widest + 1) * 64), ConfigError);
  Rng rng{1};
  EXPECT_NO_THROW(c.replay_uniform(rng, (widest + 1) * 64, 16));
  EXPECT_THROW(c.replay_uniform(rng, (widest + 1) * 64 + 1, 16), ConfigError);
  EXPECT_THROW(c.replay_uniform(rng, 0, 16), ConfigError);
  EXPECT_THROW((CacheHitModel{GpuConfig{}, std::uint64_t{1} << 62}), ConfigError);
}

TEST(CacheTest, MissThenHit) {
  Cache c{16 * 1024, 4, 64};
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1020));  // same 64-byte line
  EXPECT_FALSE(c.access(0x1040));  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheTest, LruEviction) {
  // Direct construction of a tiny 2-way, 1-set cache: capacity = 2 lines.
  Cache c{2 * 64, 2, 64};
  ASSERT_EQ(c.num_sets(), 1u);
  c.access(0 * 64);
  c.access(1 * 64);
  c.access(0 * 64);      // touch line 0: line 1 becomes LRU
  c.access(2 * 64);      // evicts line 1
  EXPECT_TRUE(c.contains(0 * 64));
  EXPECT_FALSE(c.contains(1 * 64));
  EXPECT_TRUE(c.contains(2 * 64));
}

TEST(CacheTest, ContainsDoesNotDisturbState) {
  Cache c{2 * 64, 2, 64};
  c.access(0 * 64);
  c.access(1 * 64);
  // Probing 0 must NOT refresh its recency.
  EXPECT_TRUE(c.contains(0 * 64));
  c.access(2 * 64);  // LRU is line 0
  EXPECT_FALSE(c.contains(0 * 64));
}

TEST(CacheTest, FlushEmptiesEverything) {
  Cache c{16 * 1024, 4, 64};
  c.access(0x40);
  c.flush();
  EXPECT_FALSE(c.contains(0x40));
}

TEST(CacheTest, WorkingSetSmallerThanCapacityAllHits) {
  Cache c{64 * 1024, 16, 64};
  // 32 KB working set inside a 64 KB cache: second sweep all hits.
  for (std::uint64_t a = 0; a < 32 * 1024; a += 64) c.access(a);
  c.reset_stats();
  for (std::uint64_t a = 0; a < 32 * 1024; a += 64) c.access(a);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 1.0);
}

TEST(CacheTest, StreamingNeverHits) {
  Cache c{16 * 1024, 4, 64};
  for (std::uint64_t a = 0; a < 4 * 1024 * 1024; a += 64) c.access(a);
  EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheTest, ReplayAllocatesNothingAfterConstruction) {
  Cache c{1024 * 1024, 16, 64};
  Rng rng{3};
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  c.replay_uniform(rng, 4 * 1024 * 1024, 100000);
  c.reset_stats();
  c.replay_uniform(rng, 512 * 1024, 100000);
  c.access(0x40);
  (void)c.contains(0x40);
  c.flush();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

// ---- Equivalence with the stamp-scan oracle ------------------------------

struct Geometry {
  std::size_t ways;
  std::size_t sets;
  std::size_t line;
};

class OracleEquivalence : public ::testing::TestWithParam<Geometry> {};

// Random streams over about twice the capacity, so both hits and evictions
// are common, with contains() probes, flush() and reset_stats() mixed in.
TEST_P(OracleEquivalence, EveryAccessAndProbeAgrees) {
  const Geometry g = GetParam();
  const std::size_t capacity = g.ways * g.sets * g.line;
  Cache cache{capacity, g.ways, g.line};
  ReferenceLru oracle{capacity, g.ways, g.line};
  Rng rng{g.ways * 1000003 + g.sets * 101 + g.line};
  const std::uint64_t footprint = 2 * capacity + g.line / 2;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t address = rng.next_below(footprint);
    ASSERT_EQ(cache.access(address), oracle.access(address)) << "access " << i;
    const std::uint64_t probe = rng.next_below(footprint);
    ASSERT_EQ(cache.contains(probe), oracle.contains(probe)) << "probe " << i;
    if (i % 9973 == 9972) {
      cache.flush();
      oracle.flush();
    }
    if (i % 7919 == 7918) {
      cache.reset_stats();
      oracle.reset_stats();
    }
  }
  EXPECT_EQ(cache.hits(), oracle.hits());
  EXPECT_EQ(cache.misses(), oracle.misses());
  EXPECT_GT(oracle.hits(), 0u);
  EXPECT_GT(oracle.misses(), 0u);
}

// replay_uniform() is access() in a loop: the same draws, hits and state.
TEST_P(OracleEquivalence, ReplayMatchesAccessByAccess) {
  const Geometry g = GetParam();
  const std::size_t capacity = g.ways * g.sets * g.line;
  Cache cache{capacity, g.ways, g.line};
  ReferenceLru oracle{capacity, g.ways, g.line};
  Rng cache_rng{g.sets + 17};
  Rng oracle_rng{g.sets + 17};
  for (const std::uint64_t footprint : {capacity / 2 + 1, 3 * capacity + 5}) {
    const std::uint64_t hits = cache.replay_uniform(cache_rng, footprint, 30000);
    std::uint64_t oracle_hits = 0;
    for (int i = 0; i < 30000; ++i) oracle_hits += oracle.access(oracle_rng.next_below(footprint));
    EXPECT_EQ(hits, oracle_hits) << "footprint " << footprint;
    EXPECT_EQ(cache.hits(), oracle.hits());
    EXPECT_EQ(cache.misses(), oracle.misses());
    for (std::uint64_t a = 0; a < footprint; a += g.line) {
      ASSERT_EQ(cache.contains(a), oracle.contains(a)) << "address " << a;
    }
  }
  EXPECT_EQ(cache_rng.next_u64(), oracle_rng.next_u64()) << "replay consumed other draws";
}

std::vector<Geometry> geometries() {
  // Ways 12 and 24 leave padding slots in a row's last vector; 24 also takes
  // the replay's run-time row length.
  std::vector<Geometry> out;
  for (const std::size_t ways : {1, 2, 4, 12, 16, 24}) {
    for (const std::size_t sets : {1, 64, 1024}) {
      for (const std::size_t line : {32, 64}) out.push_back({ways, sets, line});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Geometries, OracleEquivalence, ::testing::ValuesIn(geometries()),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                           const Geometry g = info.param;
                           return "w" + std::to_string(g.ways) + "_s" + std::to_string(g.sets) +
                                  "_l" + std::to_string(g.line);
                         });

// CacheHitModel's hit rate is the oracle's, to the last bit: same draws, a
// warm-up of four capacities' worth of accesses, then 2^20 measured ones.
TEST(CacheHitModelOracle, HitRateEqualsStampScanReplay) {
  const GpuConfig cfg;
  for (const double times_l2 : {0.5, 1.0, 2.0, 4.0, 8.0, 32.0}) {
    const auto footprint = static_cast<std::uint64_t>(times_l2 * static_cast<double>(cfg.l2_bytes));
    for (const std::uint64_t seed : {1, 7, 12345}) {
      ReferenceLru oracle{cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes};
      Rng rng{seed};
      for (std::uint64_t i = 0; i < cfg.l2_bytes / cfg.line_bytes * 4; ++i) {
        oracle.access(rng.next_below(footprint));
      }
      oracle.reset_stats();
      for (std::uint64_t i = 0; i < (1 << 20); ++i) oracle.access(rng.next_below(footprint));
      EXPECT_EQ(CacheHitModel(cfg, footprint, 1 << 20, seed).random_hit_rate(), oracle.hit_rate())
          << times_l2 << "x L2, seed " << seed;
    }
  }
}

// Property: for uniform random accesses over a footprint F with cache size C,
// the steady hit rate approaches min(1, C/F).
class RandomHitRate : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomHitRate, MatchesCapacityRatio) {
  const std::uint64_t footprint = GetParam();
  const std::uint64_t capacity = 64 * 1024;
  Cache c{capacity, 16, 64};
  Rng rng{footprint};
  for (int i = 0; i < 50000; ++i) c.access(rng.next_below(footprint));
  c.reset_stats();
  for (int i = 0; i < 200000; ++i) c.access(rng.next_below(footprint));
  const double expected = std::min(1.0, static_cast<double>(capacity) / footprint);
  EXPECT_NEAR(c.hit_rate(), expected, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Footprints, RandomHitRate,
                         ::testing::Values(32u * 1024, 128u * 1024, 512u * 1024,
                                           2048u * 1024));

}  // namespace
}  // namespace coolpim::gpu
