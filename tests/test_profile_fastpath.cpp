// Tests for the workload-profiling fast path: sparse-frontier SIMT costing
// vs. the dense oracle, parallel WorkloadSet construction vs. a jobs = 1
// build, and the persistent profile cache (round-trip, corruption and
// staleness fallback).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "graph/generator.hpp"
#include "graph/simt.hpp"
#include "obs/counters.hpp"
#include "sys/profile_cache.hpp"
#include "sys/workloads.hpp"

namespace coolpim {
namespace {

// --- Sparse vs. dense SIMT costing ----------------------------------------

void expect_cost_equal(const graph::SimtCost& a, const graph::SimtCost& b) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.active_warps, b.active_warps);
  EXPECT_EQ(a.divergence_accum, b.divergence_accum);  // bit-identical doubles
}

/// Dense work vector + the sorted warp-id list of its nonzero lanes.
struct Frontier {
  std::vector<std::uint32_t> work;
  std::vector<std::uint32_t> warp_ids;
  std::vector<std::uint32_t> active_values;  // nonzero entries, ascending lane
};

Frontier make_frontier(std::size_t lanes, const std::vector<std::uint32_t>& active_lanes,
                       std::uint32_t base_work) {
  Frontier f;
  f.work.assign(lanes, 0);
  for (const auto lane : active_lanes) {
    f.work[lane] = base_work + lane % 7;
    f.active_values.push_back(f.work[lane]);
    const std::uint32_t w = lane / graph::kWarpSize;
    if (f.warp_ids.empty() || f.warp_ids.back() != w) f.warp_ids.push_back(w);
  }
  return f;
}

class SparseCostEquivalence : public ::testing::Test {
 protected:
  static constexpr std::size_t kLanes = 100;  // deliberately not a warp multiple
  static constexpr double kInstr = 8.0;
  static constexpr double kBase = 16.0;

  static void check(const Frontier& f) {
    expect_cost_equal(
        graph::thread_centric_cost(f.work, kInstr, kBase),
        graph::thread_centric_cost_sparse(f.work, f.warp_ids, f.work.size(), kInstr, kBase));
    expect_cost_equal(
        graph::warp_centric_cost(f.work, kInstr, kBase),
        graph::warp_centric_cost_sparse(f.active_values, f.work.size(), kInstr, kBase));
  }
};

TEST_F(SparseCostEquivalence, EmptyFrontier) { check(make_frontier(kLanes, {}, 5)); }

TEST_F(SparseCostEquivalence, SingleVertex) {
  check(make_frontier(kLanes, {0}, 12));
  check(make_frontier(kLanes, {63}, 12));   // last lane of a warp
  check(make_frontier(kLanes, {99}, 12));   // inside the tail warp
}

TEST_F(SparseCostEquivalence, FullGraph) {
  std::vector<std::uint32_t> all(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) all[i] = static_cast<std::uint32_t>(i);
  check(make_frontier(kLanes, all, 3));
}

TEST_F(SparseCostEquivalence, ScatteredFrontier) {
  check(make_frontier(kLanes, {1, 2, 30, 31, 32, 64, 97}, 9));
  // Active lanes whose work is zero still count their warp as visited in the
  // sparse path; the dense oracle must agree (max_w == 0 -> inactive warp).
  Frontier f = make_frontier(kLanes, {5, 40}, 0);
  // base_work 0 -> work[5] = 5 % 7 = 5, work[40] = 40 % 7 = 5; force one zero.
  f.work[40] = 0;
  f.active_values = {f.work[5], 0};
  check(f);
}

TEST_F(SparseCostEquivalence, WarpCentricOrderIndependent) {
  // Per-item warp-centric costs are order-independent sums, so the sparse
  // variant may receive the active values in any order.
  const Frontier f = make_frontier(kLanes, {3, 33, 66, 98}, 20);
  auto shuffled = f.active_values;
  std::swap(shuffled.front(), shuffled.back());
  expect_cost_equal(
      graph::warp_centric_cost(f.work, kInstr, kBase),
      graph::warp_centric_cost_sparse(shuffled, f.work.size(), kInstr, kBase));
}

// --- Parallel WorkloadSet vs. a jobs = 1 build -----------------------------

void expect_profiles_identical(const std::vector<graph::WorkloadProfile>& a,
                               const std::vector<graph::WorkloadProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].name);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].driver, b[i].driver);
    EXPECT_EQ(a[i].parallelism, b[i].parallelism);
    EXPECT_EQ(a[i].atomic_kind, b[i].atomic_kind);
    EXPECT_EQ(a[i].graph_vertices, b[i].graph_vertices);
    EXPECT_EQ(a[i].graph_edges, b[i].graph_edges);
    EXPECT_EQ(a[i].result_checksum, b[i].result_checksum);
    ASSERT_EQ(a[i].iterations.size(), b[i].iterations.size());
    for (std::size_t j = 0; j < a[i].iterations.size(); ++j) {
      const auto& p = a[i].iterations[j];
      const auto& q = b[i].iterations[j];
      EXPECT_EQ(p.scanned_vertices, q.scanned_vertices);
      EXPECT_EQ(p.active_vertices, q.active_vertices);
      EXPECT_EQ(p.edges_processed, q.edges_processed);
      EXPECT_EQ(p.work_threads, q.work_threads);
      EXPECT_EQ(p.struct_scan_bytes, q.struct_scan_bytes);
      EXPECT_EQ(p.property_reads, q.property_reads);
      EXPECT_EQ(p.property_writes, q.property_writes);
      EXPECT_EQ(p.atomic_ops, q.atomic_ops);
      EXPECT_EQ(p.compute_warp_instructions, q.compute_warp_instructions);
      EXPECT_EQ(p.divergent_warp_ratio, q.divergent_warp_ratio);  // bit-identical
    }
  }
}

TEST(WorkloadSetParallelTest, BitIdenticalToSerialReferenceAtAnyJobs) {
  // jobs = 1 builds the CSR serially and profiles one workload after another.
  sys::WorkloadSet::BuildOptions serial_opt;
  serial_opt.jobs = 1;
  serial_opt.use_cache = false;
  const sys::WorkloadSet oracle{12, 7, true, serial_opt};

  for (const unsigned jobs : {3u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    sys::WorkloadSet::BuildOptions opt;
    opt.jobs = jobs;
    opt.use_cache = false;
    const sys::WorkloadSet parallel{12, 7, true, opt};
    expect_profiles_identical(oracle.all(), parallel.all());
    EXPECT_EQ(parallel.build_stats().profiles_computed, oracle.all().size());
    EXPECT_EQ(parallel.build_stats().cache_hits, 0u);
  }
}

TEST(WorkloadSetParallelTest, ProfileLookupByName) {
  const sys::WorkloadSet set{11, 2};
  for (const auto& name : sys::workload_names()) {
    EXPECT_EQ(set.profile(name).name, name);
  }
  EXPECT_THROW((void)set.profile("nope"), ConfigError);
}

TEST(WorkloadSetParallelTest, SourceComesFromDegreeTable) {
  const auto g = graph::make_ldbc_like(11, 2);
  const auto hub = g.max_degree_vertex();
  // Oracle: the original linear scan semantics (lowest id wins ties).
  graph::VertexId expect = 0;
  std::uint32_t best = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > best) {
      best = g.out_degree(v);
      expect = v;
    }
  }
  EXPECT_EQ(hub, expect);
  EXPECT_EQ(g.out_degree(hub), g.max_degree());
}

// --- Persistent profile cache ---------------------------------------------

class ProfileCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("coolpim-cache-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  sys::WorkloadSet build(obs::CounterRegistry* counters = nullptr) const {
    sys::WorkloadSet::BuildOptions opt;
    opt.cache_dir = dir_;
    opt.counters = counters;
    return sys::WorkloadSet{11, 3, false, opt};
  }

  std::string dir_;
};

TEST_F(ProfileCacheTest, RoundTripServesIdenticalProfiles) {
  obs::CounterRegistry cold_counters;
  const sys::WorkloadSet cold = build(&cold_counters);
  EXPECT_EQ(cold.build_stats().cache_hits, 0u);
  EXPECT_EQ(cold.build_stats().cache_misses, 1u);
  EXPECT_EQ(cold.build_stats().profiles_computed, cold.all().size());
  EXPECT_TRUE(cold.build_stats().cache_stored);
  EXPECT_EQ(cold_counters.counter_value("graph/profiles_computed"), cold.all().size());

  obs::CounterRegistry warm_counters;
  const sys::WorkloadSet warm = build(&warm_counters);
  EXPECT_EQ(warm.build_stats().cache_hits, warm.all().size());
  EXPECT_EQ(warm.build_stats().cache_misses, 0u);
  EXPECT_EQ(warm.build_stats().profiles_computed, 0u);
  EXPECT_EQ(warm_counters.counter_value("graph/profile_cache_hits"), warm.all().size());
  EXPECT_EQ(warm_counters.counter_value("graph/profiles_computed"), 0u);
  expect_profiles_identical(cold.all(), warm.all());
}

TEST_F(ProfileCacheTest, CorruptedEntryFallsBackToRecompute) {
  const sys::WorkloadSet cold = build();
  const auto path = sys::profile_cache_file(
      dir_, sys::profile_cache_key(11, 3, false));
  ASSERT_TRUE(std::filesystem::exists(path));

  // Flip one byte in the middle of the payload; the hash trailer must
  // reject the entry and the build must recompute (and rewrite it).
  {
    const auto mid = static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    f.seekg(mid);
    const int byte = f.get();
    ASSERT_GE(byte, 0);
    f.seekp(mid);
    f.put(static_cast<char>(byte ^ 0xff));
  }
  const sys::WorkloadSet rebuilt = build();
  EXPECT_EQ(rebuilt.build_stats().cache_hits, 0u);
  EXPECT_EQ(rebuilt.build_stats().cache_misses, 1u);
  EXPECT_EQ(rebuilt.build_stats().profiles_computed, rebuilt.all().size());
  EXPECT_TRUE(rebuilt.build_stats().cache_stored);
  expect_profiles_identical(cold.all(), rebuilt.all());

  // The rewritten entry is usable again.
  const sys::WorkloadSet warm = build();
  EXPECT_EQ(warm.build_stats().cache_hits, warm.all().size());
}

TEST_F(ProfileCacheTest, TruncatedEntryFallsBackToRecompute) {
  const sys::WorkloadSet cold = build();
  const auto path = sys::profile_cache_file(
      dir_, sys::profile_cache_key(11, 3, false));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  const sys::WorkloadSet rebuilt = build();
  EXPECT_EQ(rebuilt.build_stats().cache_hits, 0u);
  EXPECT_EQ(rebuilt.build_stats().profiles_computed, rebuilt.all().size());
  expect_profiles_identical(cold.all(), rebuilt.all());
}

TEST_F(ProfileCacheTest, StaleEntryWithWrongGraphShapeIsRejected) {
  // Craft an internally-consistent entry (valid hash, version and key) whose
  // profiles describe a different graph: the semantic cross-check against
  // the freshly built graph must reject it.
  const sys::WorkloadSet cold = build();
  auto stale = cold.all();
  for (auto& p : stale) p.graph_vertices += 1;
  const auto key = sys::profile_cache_key(11, 3, false);
  ASSERT_TRUE(sys::save_profiles(dir_, key, stale));

  const sys::WorkloadSet rebuilt = build();
  EXPECT_EQ(rebuilt.build_stats().cache_hits, 0u);
  EXPECT_EQ(rebuilt.build_stats().cache_misses, 1u);
  EXPECT_EQ(rebuilt.build_stats().profiles_computed, rebuilt.all().size());
  expect_profiles_identical(cold.all(), rebuilt.all());
}

// Writes an entry for `key` whose payload is `payload`, with a valid magic
// and hash trailer, as save_profiles() would.
void write_entry(const std::string& dir, std::uint64_t key, const std::string& payload) {
  std::filesystem::create_directories(dir);
  std::ofstream out{sys::profile_cache_file(dir, key), std::ios::binary | std::ios::trunc};
  out.write("CPPROF01", 8);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  HashStream h;
  h.bytes(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) out.put(static_cast<char>((h.digest() >> (8 * i)) & 0xff));
}

void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// An intact entry (magic, version, key and hash all valid) whose counts
// claim more than its payload holds must fall back to recompute, not size a
// vector by them: 2^32 - 1 profiles or 2^32 iteration records would ask
// the allocator for hundreds of GB, and its std::bad_alloc escaped the
// WorkloadSet constructor.
TEST_F(ProfileCacheTest, ProfileCountBeyondPayloadFallsBackToRecompute) {
  const auto key = sys::profile_cache_key(11, 3, false);
  std::string payload;
  put_u32(payload, sys::kProfileFormatVersion);
  put_u64(payload, key);
  put_u32(payload, 0xffff'ffffu);  // profiles; none follow
  write_entry(dir_, key, payload);
  std::vector<graph::WorkloadProfile> loaded;
  EXPECT_FALSE(sys::load_profiles(dir_, key, loaded));
  EXPECT_TRUE(loaded.empty());

  const sys::WorkloadSet rebuilt = build();
  EXPECT_EQ(rebuilt.build_stats().cache_hits, 0u);
  EXPECT_EQ(rebuilt.build_stats().cache_misses, 1u);
  EXPECT_EQ(rebuilt.build_stats().profiles_computed, rebuilt.all().size());
  EXPECT_TRUE(rebuilt.build_stats().cache_stored);
}

TEST_F(ProfileCacheTest, IterationCountBeyondPayloadFallsBackToRecompute) {
  const auto key = sys::profile_cache_key(11, 3, false);
  std::string payload;
  put_u32(payload, sys::kProfileFormatVersion);
  put_u64(payload, key);
  put_u32(payload, 1);  // one profile ...
  put_u32(payload, 2);
  payload += "dc";
  payload += std::string(3, '\0');  // three 1-byte tags, all 0
  put_u32(payload, 1u << 11);
  put_u64(payload, 16u << 11);
  put_u64(payload, 0);               // checksum
  put_u64(payload, 1ull << 32);      // ... claiming 2^32 iterations; none follow
  write_entry(dir_, key, payload);
  std::vector<graph::WorkloadProfile> loaded;
  EXPECT_FALSE(sys::load_profiles(dir_, key, loaded));
  EXPECT_TRUE(loaded.empty());

  const sys::WorkloadSet rebuilt = build();
  EXPECT_EQ(rebuilt.build_stats().cache_hits, 0u);
  EXPECT_EQ(rebuilt.build_stats().cache_misses, 1u);
  EXPECT_EQ(rebuilt.build_stats().profiles_computed, rebuilt.all().size());
  EXPECT_TRUE(rebuilt.build_stats().cache_stored);
}

TEST_F(ProfileCacheTest, KeySeparatesIdentities) {
  const auto k1 = sys::profile_cache_key(11, 3, false);
  EXPECT_NE(k1, sys::profile_cache_key(12, 3, false));
  EXPECT_NE(k1, sys::profile_cache_key(11, 4, false));
  EXPECT_NE(k1, sys::profile_cache_key(11, 3, true));
}

}  // namespace
}  // namespace coolpim
