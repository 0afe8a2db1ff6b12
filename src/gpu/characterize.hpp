// Workload characterization: logical access counts -> memory transactions.
//
// Graph workloads touch memory in three ways: streaming scans of the CSR
// arrays (perfectly coalesced, one 64-byte transaction per line, near-zero
// reuse), random 4-8 byte property accesses (one transaction each unless the
// L2 retains the line), and atomic RMWs (allocated in an uncacheable region
// per the GraphPIM policy the paper adopts, so they always go to memory).
// The random-access hit rate is *measured* rather than assumed: the L2
// cache model (exact LRU, cache.hpp) replays a uniform-random stream over
// the property footprint, warmed with four capacities' worth of accesses.
// The closed-form expectation of that stream -- each set's share of the
// footprint times min(1, ways / lines in the set) -- is a test property of
// the replay (tests/test_characterize.cpp), not a substitute for it.
#pragma once

#include <cstdint>

#include "gpu/cache.hpp"
#include "gpu/config.hpp"
#include "graph/profile.hpp"

namespace coolpim::gpu {

/// Measured cache behaviour for a given property-array footprint.
class CacheHitModel {
 public:
  /// `property_bytes`: total footprint of the randomly-accessed property
  /// arrays.  The hit rate is measured by replaying `sample_accesses`
  /// uniform-random accesses, drawn from Rng{seed}, through the configured
  /// L2 (Cache::replay_uniform).
  CacheHitModel(const GpuConfig& cfg, std::uint64_t property_bytes,
                std::uint64_t sample_accesses = 1 << 20, std::uint64_t seed = 7);

  [[nodiscard]] double random_hit_rate() const { return random_hit_rate_; }
  /// Streaming scans miss essentially always (no reuse within an iteration).
  [[nodiscard]] double stream_hit_rate() const { return 0.0; }

 private:
  double random_hit_rate_{0.0};
};

/// Memory transactions one kernel iteration sends to the HMC.
struct MemoryDemand {
  double read_txns{0.0};    // 64-byte reads
  double write_txns{0.0};   // 64-byte writes
  double atomic_ops{0.0};   // PIM-offloadable RMWs (uncacheable)
};

/// Convert an iteration profile into memory-transaction demand.
[[nodiscard]] MemoryDemand characterize(const graph::IterationProfile& it,
                                        const CacheHitModel& cache);

}  // namespace coolpim::gpu
