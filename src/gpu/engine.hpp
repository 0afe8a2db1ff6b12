// GPU epoch execution engine.
//
// Replays a workload's kernel launches on the modelled GPU.  Each kernel
// launch is a pool of thread blocks scheduled FIFO onto the SMs; per epoch
// the engine computes how much of the current launch the GPU could advance
// (bounded by warp-instruction issue bandwidth and, at low occupancy, by the
// latency-bound request rate), offers the implied memory-transaction demand
// to the HMC, and commits the progress the HMC actually served.
//
// CoolPIM integration: PIM-capable atomics execute as PIM operations for the
// fraction of work the throttle controller currently allows -- block-granular
// through the token pool (SW-DynT: blocks acquire tokens at launch, shadow
// kernels otherwise) and warp-granular through the PCU fraction (HW-DynT).
// Non-offloaded atomics run as host RMWs: one 64-byte read plus one 64-byte
// write at the memory.
#pragma once

#include <deque>
#include <vector>

#include "common/units.hpp"
#include "control/policy.hpp"
#include "gpu/characterize.hpp"
#include "gpu/config.hpp"
#include "graph/profile.hpp"
#include "hmc/throughput_model.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace coolpim::gpu {

/// One kernel launch, pre-characterized.
struct LaunchSpec {
  double warp_instructions{0.0};  // total, incl. atomic issue slots
  MemoryDemand mem{};             // total transactions for the launch
  std::uint64_t blocks{1};
  std::uint64_t warps{1};
  double divergence{0.0};
};

/// Build launch specs from a workload profile (applies the cache model and
/// block-size arithmetic).
[[nodiscard]] std::vector<LaunchSpec> build_launches(const graph::WorkloadProfile& profile,
                                                     const GpuConfig& cfg,
                                                     const CacheHitModel& cache);

class ExecutionEngine {
 public:
  ExecutionEngine(GpuConfig cfg, std::vector<LaunchSpec> launches,
                  control::Policy& controller);

  /// Demand the GPU would like served during the next `window` of time.
  /// Returns zero demand while in kernel-launch overhead or when finished.
  [[nodiscard]] hmc::EpochDemand plan(Time now, Time window);

  /// Commit what the HMC served; advances internal progress.  Returns the
  /// simulated time actually consumed (== window except at launch ends).
  Time commit(Time now, Time window, const hmc::EpochService& service);

  [[nodiscard]] bool finished() const { return launch_idx_ >= launches_.size(); }
  [[nodiscard]] std::size_t current_launch() const { return launch_idx_; }

  /// Fraction of atomic work currently allowed to offload (token-holding
  /// block share times the PCU warp fraction).
  [[nodiscard]] double pim_fraction(Time now) const;

  /// Reset progress (for warm-up repetitions).
  void restart();

  /// Integer host-atomic total committed since construction (commit() emits
  /// each increment to `gpu/host_atomics`); restart() does not reset it.
  [[nodiscard]] std::uint64_t host_atomics_emitted() const { return host_atomics_emitted_; }

  /// Attach observability (category "gpu"): a complete-span per kernel
  /// launch (queued -> retired) and the `gpu/*` launch, block and op
  /// counters.  Read-only; execution is identical with or without.
  void set_observer(obs::Trace trace, obs::CounterRegistry* counters = nullptr) {
    trace_ = trace;
    counters_ = counters;
  }

  /// Per-launch kernel dispatch overhead (driver + runtime).
  Time launch_overhead{Time::us(5.0)};

 private:
  struct Progress {
    double fraction_done{0.0};      // of the current launch
    double blocks_retired{0.0};     // fractional retire carry
    Time overhead_left{Time::zero()};
  };

  void begin_launch(Time now);
  void refill_residency(Time now);
  void retire_blocks(Time now, double count);
  [[nodiscard]] double gpu_bound_fraction(Time window) const;

  GpuConfig cfg_;
  std::vector<LaunchSpec> launches_;
  control::Policy& controller_;

  std::size_t launch_idx_{0};
  Progress prog_{};
  // Exact running sums of the fractional per-epoch op streams and how much
  // of each has been emitted to the integer counters (commit() adds the
  // delta, so totals never drift from the true sum by more than one op).
  double pim_ops_accum_{0.0};
  double host_atomics_accum_{0.0};
  std::uint64_t pim_ops_emitted_{0};
  std::uint64_t host_atomics_emitted_{0};
  Time launch_began_{Time::zero()};
  // Residency: flags for resident blocks, true = holds a PIM token.
  std::deque<bool> resident_;
  std::uint64_t blocks_launched_{0};
  std::uint64_t resident_pim_{0};

  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::gpu
