// GPU configuration (paper Table IV host side).
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace coolpim::gpu {

/// How offloaded PIM data is kept coherent with the caches (paper II-B).
enum class OffloadPolicy : std::uint8_t {
  /// GraphPIM: the PIM target region is uncacheable, so offloads carry no
  /// coherence traffic (the policy the paper adopts).
  kUncacheableRegion,
  /// PEI: cache blocks touched by PIM instructions are invalidated or
  /// written back, adding coherence traffic per offload.
  kCoherentWriteback,
};

struct GpuConfig {
  std::size_t num_sms{16};
  std::size_t threads_per_warp{32};
  std::size_t threads_per_block{256};
  std::size_t max_blocks_per_sm{8};
  std::size_t max_warps_per_sm{64};
  Frequency clock{Frequency::ghz(1.4)};

  // Cache hierarchy (Table IV: 16 KB private L1D, 1 MB 16-way L2).
  std::size_t l1_bytes{16 * 1024};
  std::size_t l1_ways{4};
  std::size_t l2_bytes{1024 * 1024};
  std::size_t l2_ways{16};
  std::size_t line_bytes{64};

  /// Memory-level parallelism per warp: outstanding memory requests a warp
  /// sustains while blocked (MSHR-limited).
  double mlp_per_warp{2.0};
  /// Loaded round-trip latency to the HMC seen by an SM (link + queue +
  /// bank), used for the latency-bound throughput cap at low occupancy.
  Time mem_latency{Time::ns(280.0)};

  /// Host (non-offloaded) atomics perform a read-modify-write at the L2
  /// atomic units; updates to hot vertices hit the same 64-byte line and
  /// coalesce, so each atomic costs fewer than a full read + write pair of
  /// memory transactions on average.  PIM offloads cannot coalesce (each op
  /// is its own packet) -- one of the trade-offs the evaluation captures.
  double host_atomic_coalescing{0.7};

  /// Coherence policy for offloaded atomics.
  OffloadPolicy offload_policy{OffloadPolicy::kUncacheableRegion};
  /// PEI only: average writeback/invalidate transactions added per offload
  /// (fraction of touched blocks found dirty or cached).
  double pei_coherence_txns{0.35};

  [[nodiscard]] std::size_t warps_per_block() const {
    return threads_per_block / threads_per_warp;
  }
  /// Peak warp-instruction issue rate, all SMs (1 IPC per SM).
  [[nodiscard]] double issue_rate_per_sec() const {
    return static_cast<double>(num_sms) * clock.as_hz();
  }
  [[nodiscard]] std::size_t max_resident_blocks() const {
    return num_sms * max_blocks_per_sm;
  }

  /// Positivity comes before every division, so a zero fails as a
  /// ConfigError rather than a SIGFPE.
  void validate() const {
    COOLPIM_REQUIRE(num_sms > 0, "need at least one SM");
    COOLPIM_REQUIRE(threads_per_warp > 0, "need at least one thread per warp");
    COOLPIM_REQUIRE(threads_per_block % threads_per_warp == 0,
                    "block size must be a whole number of warps");
    COOLPIM_REQUIRE(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                    "cache line size must be a power of two");
    COOLPIM_REQUIRE(l1_ways > 0 && l2_ways > 0, "caches need at least one way");
    COOLPIM_REQUIRE(l1_bytes % (l1_ways * line_bytes) == 0, "L1 geometry invalid");
    COOLPIM_REQUIRE(l2_bytes % (l2_ways * line_bytes) == 0, "L2 geometry invalid");
  }
};

}  // namespace coolpim::gpu
