// Tests for the workload characterizer (logical counts -> transactions).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

#include "gpu/characterize.hpp"

namespace coolpim::gpu {
namespace {

TEST(CacheHitModelTest, SmallFootprintMostlyHits) {
  const GpuConfig cfg;
  const CacheHitModel model{cfg, 256 * 1024};  // fits in the 1 MB L2
  EXPECT_GT(model.random_hit_rate(), 0.95);
}

TEST(CacheHitModelTest, LargeFootprintMostlyMisses) {
  const GpuConfig cfg;
  const CacheHitModel model{cfg, 64ull * 1024 * 1024};
  EXPECT_LT(model.random_hit_rate(), 0.05);
}

TEST(CacheHitModelTest, MonotoneInFootprint) {
  const GpuConfig cfg;
  double prev = 1.1;
  for (const std::uint64_t mb : {1ull, 2ull, 4ull, 8ull, 16ull}) {
    const CacheHitModel model{cfg, mb * 1024 * 1024};
    EXPECT_LE(model.random_hit_rate(), prev + 0.02);
    prev = model.random_hit_rate();
  }
}

TEST(CacheHitModelTest, StreamsNeverHit) {
  const GpuConfig cfg;
  const CacheHitModel model{cfg, 1024};
  EXPECT_DOUBLE_EQ(model.stream_hit_rate(), 0.0);
}

TEST(CacheHitModelTest, ZeroFootprintThrows) {
  const GpuConfig cfg;
  EXPECT_THROW((CacheHitModel{cfg, 0}), ConfigError);
}

/// The expected LRU hit rate under uniform independent references: a set
/// with W ways holding n equally likely lines hits with probability
/// min(1, W/n), so the rate is the sum over sets of each set's share of the
/// footprint's bytes times min(1, W/n_set).
double closed_form_hit_rate(const GpuConfig& cfg, std::uint64_t footprint) {
  const std::uint64_t line = cfg.line_bytes;
  const std::uint64_t sets = cfg.l2_bytes / (cfg.l2_ways * line);
  std::vector<std::uint64_t> lines(sets, 0), bytes(sets, 0);
  for (std::uint64_t k = 0; k * line < footprint; ++k) {
    ++lines[k % sets];
    bytes[k % sets] += std::min(line, footprint - k * line);
  }
  double rate = 0.0;
  for (std::uint64_t s = 0; s < sets; ++s) {
    if (lines[s] == 0) continue;
    rate += static_cast<double>(bytes[s]) / static_cast<double>(footprint) *
            std::min(1.0, static_cast<double>(cfg.l2_ways) / static_cast<double>(lines[s]));
  }
  return rate;
}

/// CacheHitModel's hit rate at `times_l2` the L2 size for seeds 1..8.
std::vector<double> hit_rates_over_seeds(const GpuConfig& cfg, double times_l2) {
  const auto footprint = static_cast<std::uint64_t>(times_l2 * static_cast<double>(cfg.l2_bytes));
  std::vector<double> rates;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rates.push_back(CacheHitModel{cfg, footprint, 1 << 20, seed}.random_hit_rate());
  }
  return rates;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Past the L2 size the replay's mean over 8 seeds lies within 4 standard
// errors of the closed form.  The model stays a replay; the closed form is
// a property it must satisfy.
TEST(CacheHitModelTest, AboveCapacityMatchesClosedFormWithinSeedNoise) {
  const GpuConfig cfg;
  for (const double times_l2 : {1.5, 2.0, 3.0, 4.5, 8.0, 12.0, 23.0}) {
    const std::vector<double> rates = hit_rates_over_seeds(cfg, times_l2);
    const double m = mean(rates);
    double var = 0.0;
    for (const double r : rates) var += (r - m) * (r - m);
    const double std_error = std::sqrt(var / static_cast<double>(rates.size() - 1) /
                                       static_cast<double>(rates.size()));
    const auto footprint =
        static_cast<std::uint64_t>(times_l2 * static_cast<double>(cfg.l2_bytes));
    EXPECT_NEAR(m, closed_form_hit_rate(cfg, footprint), 4.0 * std_error)
        << times_l2 << "x L2";
  }
}

// At or below the L2 size the closed form is 1; the replay falls short only
// by compulsory misses, the e^-4 of the lines its 4x-capacity warm-up leaves
// untouched (one seed reads 0.99968 at exactly 1x, so the bound is on the
// mean).
TEST(CacheHitModelTest, AtOrBelowCapacityNearlyAlwaysHits) {
  const GpuConfig cfg;
  for (const double times_l2 : {0.25, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(closed_form_hit_rate(cfg, static_cast<std::uint64_t>(
                                                   times_l2 * static_cast<double>(cfg.l2_bytes))),
                     1.0);
    EXPECT_GE(mean(hit_rates_over_seeds(cfg, times_l2)), 0.9997) << times_l2 << "x L2";
  }
}

TEST(CharacterizeTest, StreamingBytesBecomeLineTransactions) {
  const GpuConfig cfg;
  const CacheHitModel cache{cfg, 64ull * 1024 * 1024};  // ~0 hit rate
  graph::IterationProfile it;
  it.struct_scan_bytes = 64 * 1000;
  const auto d = characterize(it, cache);
  EXPECT_NEAR(d.read_txns, 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(d.write_txns, 0.0);
  EXPECT_DOUBLE_EQ(d.atomic_ops, 0.0);
}

TEST(CharacterizeTest, PropertyReadsFilteredByHitRate) {
  const GpuConfig cfg;
  const CacheHitModel big{cfg, 64ull * 1024 * 1024};
  const CacheHitModel small{cfg, 128 * 1024};
  graph::IterationProfile it;
  it.property_reads = 10000;
  const auto cold = characterize(it, big);
  const auto warm = characterize(it, small);
  EXPECT_GT(cold.read_txns, 0.9 * 10000);
  EXPECT_LT(warm.read_txns, 0.2 * 10000);
}

TEST(CharacterizeTest, AtomicsBypassCache) {
  // GraphPIM policy: PIM-target data lives in an uncacheable region, so the
  // atomic count passes through regardless of cache size.
  const GpuConfig cfg;
  const CacheHitModel small{cfg, 64 * 1024};
  graph::IterationProfile it;
  it.atomic_ops = 4242;
  const auto d = characterize(it, small);
  EXPECT_DOUBLE_EQ(d.atomic_ops, 4242.0);
  EXPECT_DOUBLE_EQ(d.read_txns, 0.0);
}

TEST(CharacterizeTest, WritesScaleWithMissRate) {
  const GpuConfig cfg;
  const CacheHitModel cold{cfg, 64ull * 1024 * 1024};
  graph::IterationProfile it;
  it.property_writes = 5000;
  const auto d = characterize(it, cold);
  EXPECT_GT(d.write_txns, 0.9 * 5000);
}

}  // namespace
}  // namespace coolpim::gpu
