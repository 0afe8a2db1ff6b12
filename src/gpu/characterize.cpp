#include "gpu/characterize.hpp"

#include "common/rng.hpp"

namespace coolpim::gpu {

CacheHitModel::CacheHitModel(const GpuConfig& cfg, std::uint64_t property_bytes,
                             std::uint64_t sample_accesses, std::uint64_t seed) {
  COOLPIM_REQUIRE(property_bytes > 0, "property footprint must be positive");
  Cache l2{cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes};
  Rng rng{seed};
  // Warm the cache with four capacities' worth of accesses before measuring.
  l2.replay_uniform(rng, property_bytes, cfg.l2_bytes / cfg.line_bytes * 4);
  l2.reset_stats();
  l2.replay_uniform(rng, property_bytes, sample_accesses);
  random_hit_rate_ = l2.hit_rate();
}

MemoryDemand characterize(const graph::IterationProfile& it, const CacheHitModel& cache) {
  MemoryDemand d;
  // Streaming scans: one 64-byte read per line, no reuse.
  d.read_txns += static_cast<double>(it.struct_scan_bytes) / 64.0 *
                 (1.0 - cache.stream_hit_rate());
  // Random property reads: one transaction per access on a miss.
  d.read_txns += static_cast<double>(it.property_reads) * (1.0 - cache.random_hit_rate());
  // Random property writes: write-allocate then eventual writeback; count the
  // writeback transaction (the allocate read is covered by the hit model).
  d.write_txns += static_cast<double>(it.property_writes) * (1.0 - cache.random_hit_rate());
  // Atomics bypass the cache (uncacheable PIM region).
  d.atomic_ops = static_cast<double>(it.atomic_ops);
  return d;
}

}  // namespace coolpim::gpu
