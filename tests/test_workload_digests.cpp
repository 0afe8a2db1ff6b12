// Byte-identity pin for sys::WorkloadSet: one FNV-1a digest per graph (over
// row_ptr, col_idx, weights and degrees) and one per profile (over every
// field, each IterationProfile included, doubles by bit pattern), for scales
// 10, 12, 13 and 16 and seeds 1-3 with the extension workloads.  Every entry
// is rebuilt at jobs 1 and at jobs 4, without the profile cache, and must
// reproduce tests/golden/workload_set_digests.csv exactly: a change to the
// RMAT sampling, the CSR build or any kernel's accounting shows up as a
// changed digest, whatever the parallelism.
//
// To regenerate after an *intentional* generator or profile change:
//   COOLPIM_GOLDEN_REGEN=1 ./build/tests/test_workload_digests
// then review the diff of tests/golden/workload_set_digests.csv and commit it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sys/workloads.hpp"

namespace coolpim {
namespace {

constexpr const char* kGoldenPath = COOLPIM_GOLDEN_DIR "/workload_set_digests.csv";

/// Incremental FNV-1a (64-bit) over the little-endian bytes of each value.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  template <typename T>
  void add_all(const T& values) {
    add(static_cast<std::uint64_t>(std::size(values)));
    for (const auto v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

std::uint64_t graph_digest(const graph::CsrGraph& g) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(g.num_vertices()));
  h.add_all(g.row_ptr());
  h.add_all(g.col_idx());
  h.add(static_cast<std::uint64_t>(g.has_weights()));
  if (g.has_weights()) {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const auto w : g.edge_weights(v)) h.add(static_cast<std::uint64_t>(w));
    }
  }
  h.add_all(g.degrees());
  return h.value();
}

std::uint64_t profile_digest(const graph::WorkloadProfile& p) {
  Fnv1a h;
  h.add(p.name);
  h.add(static_cast<std::uint64_t>(p.driver));
  h.add(static_cast<std::uint64_t>(p.parallelism));
  h.add(static_cast<std::uint64_t>(p.atomic_kind));
  h.add(static_cast<std::uint64_t>(p.graph_vertices));
  h.add(p.graph_edges);
  h.add(static_cast<std::uint64_t>(p.iterations.size()));
  for (const auto& it : p.iterations) {
    h.add(it.scanned_vertices);
    h.add(it.active_vertices);
    h.add(it.edges_processed);
    h.add(it.work_threads);
    h.add(it.struct_scan_bytes);
    h.add(it.property_reads);
    h.add(it.property_writes);
    h.add(it.atomic_ops);
    h.add(it.compute_warp_instructions);
    h.add(it.divergent_warp_ratio);
  }
  h.add(p.result_checksum);
  return h.value();
}

/// One CSV row: `scale,seed,item,digest`, where item is "graph" or a
/// workload name and the digest is 16 lower-case hex digits.
std::string row(unsigned scale, unsigned seed, const std::string& item, std::uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  return std::to_string(scale) + ',' + std::to_string(seed) + ',' + item + ',' + hex;
}

std::vector<std::string> digest_rows(unsigned jobs) {
  std::vector<std::string> rows;
  for (const unsigned scale : {10u, 12u, 13u, 16u}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      sys::WorkloadSet::BuildOptions opt;
      opt.jobs = jobs;
      opt.use_cache = false;
      const sys::WorkloadSet set{scale, seed, true, opt};
      rows.push_back(row(scale, seed, "graph", graph_digest(set.graph())));
      for (const auto& p : set.all()) rows.push_back(row(scale, seed, p.name, profile_digest(p)));
    }
  }
  return rows;
}

constexpr const char* kHeader = "scale,seed,item,digest";

TEST(WorkloadSetDigests, MatchGoldenAtJobs1AndJobs4) {
  const auto serial = digest_rows(1);
  if (std::getenv("COOLPIM_GOLDEN_REGEN")) {
    std::ofstream out{kGoldenPath};
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << kHeader << '\n';
    for (const auto& r : serial) out << r << '\n';
    GTEST_SKIP() << "regenerated " << kGoldenPath << " -- review and commit the diff";
  }

  std::ifstream in{kGoldenPath};
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << "; run with COOLPIM_GOLDEN_REGEN=1 to create it";
  std::string line;
  std::getline(in, line);
  ASSERT_EQ(line, kHeader);
  std::vector<std::string> golden;
  while (std::getline(in, line)) {
    if (!line.empty()) golden.push_back(line);
  }

  const auto parallel = digest_rows(4);
  ASSERT_EQ(serial.size(), golden.size()) << "digest set changed shape";
  ASSERT_EQ(parallel.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(serial[i], golden[i]) << "jobs 1";
    EXPECT_EQ(parallel[i], golden[i]) << "jobs 4";
  }
}

}  // namespace
}  // namespace coolpim
