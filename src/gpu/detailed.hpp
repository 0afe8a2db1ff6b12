// Event-detailed GPU micro-model (MacSim stand-in).
//
// Warps are in-order agents: each alternates compute bursts (occupying its
// SM's single-issue pipeline) with memory operations (L1 lookup, then an HMC
// transaction on a miss).  Latency hiding comes from multi-warp occupancy,
// exactly the mechanism behind the epoch model's latency-bound throughput
// cap -- the micro-benches and tests cross-validate that cap against this
// model (DESIGN.md section 5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gpu/cache.hpp"
#include "gpu/config.hpp"
#include "hmc/device.hpp"
#include "sim/simulation.hpp"

namespace coolpim::gpu {

/// Address pattern a warp's memory operations follow.
enum class AddressPattern : std::uint8_t { kStreaming, kRandom };

/// Synthetic per-warp trace: `memory_ops` operations, each preceded by a
/// compute burst of `compute_per_memop` warp instructions.
struct WarpTrace {
  std::uint64_t memory_ops{100};
  std::uint64_t compute_per_memop{4};
  hmc::TransactionType type{hmc::TransactionType::kRead64};
  AddressPattern pattern{AddressPattern::kRandom};
  /// Footprint the random pattern draws from (bytes).
  std::uint64_t footprint_bytes{256ull << 20};
};

/// Results of a detailed run.
struct DetailedResult {
  Time completion{Time::zero()};
  std::uint64_t memory_ops{0};
  std::uint64_t l1_hits{0};
  double achieved_gbps{0.0};
  double avg_latency_ns{0.0};
};

class DetailedGpu {
 public:
  DetailedGpu(sim::Simulation& sim, GpuConfig cfg, hmc::Device& device);

  /// Launch one warp per trace, assigned round-robin to SMs, and return a
  /// handle for collecting results after sim.run_to_completion().
  void launch(const std::vector<WarpTrace>& traces);

  /// Collect results; valid once the simulation has drained.
  [[nodiscard]] DetailedResult result() const;

 private:
  struct Warp;
  void step_warp(Warp& warp);
  void issue_memop(Warp& warp);

  sim::Simulation& sim_;
  GpuConfig cfg_;
  hmc::Device& device_;

  struct Sm {
    Time issue_free_at{Time::zero()};
    std::unique_ptr<Cache> l1;
  };
  std::vector<Sm> sms_;

  struct Warp {
    std::size_t sm{0};
    WarpTrace trace;
    std::uint64_t ops_done{0};
    std::uint64_t next_addr{0};
    Rng rng{0};
  };
  std::vector<std::unique_ptr<Warp>> warps_;

  std::uint64_t total_ops_{0};
  std::uint64_t payload_bytes_{0};
  std::uint64_t l1_hits_{0};
  Summary latency_ns_;  // issue -> response, L1 misses only
  Time last_completion_{Time::zero()};
};

}  // namespace coolpim::gpu
