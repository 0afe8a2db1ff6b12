// Static PTP initialization (paper Equation 1).
//
//   PIMRate = PIMPeakRate * PIMIntensity * (PTP_Size / MaxBlk#)
//             * (1 - Ratio_DivergentWarp)
//
// Solved for PTP_Size at the target PIM rate (the thermal budget, 1.3 op/ns
// for the commodity-cooled HMC 2.0), plus a small margin because the runtime
// feedback only ever *down*-tunes the pool.
#pragma once

#include <cstdint>

namespace coolpim::control {

struct Eq1Inputs {
  /// Hardware peak PIM offloading rate in op/ns, measured by a trial run or
  /// taken from the link budget (HMC 2.0 links carry at most
  /// 30 GFLIT/s / 3 FLIT = 10 op/ns of PIM traffic).
  double pim_peak_rate_op_per_ns{10.0};
  /// Atomic (PIM) instructions per warp instruction, from static analysis of
  /// the kernel (WorkloadProfile::pim_intensity()).
  double pim_intensity{0.0};
  /// Maximum concurrently resident thread blocks on the GPU.
  std::uint32_t max_blocks{128};
  /// Estimated divergent-warp ratio (high for topology-driven graph kernels,
  /// near zero for warp-centric ones).
  double divergent_warp_ratio{0.0};
  /// Thermal PIM-rate budget, op/ns.
  double target_rate_op_per_ns{1.3};
  /// Safety margin in blocks (paper uses 4).
  std::uint32_t margin_blocks{4};
  /// If > 0, the static analysis' estimate of the un-throttled offloading
  /// rate (the "simple trial run" the paper describes); the pool is then
  /// sized directly as target/estimate * max_blocks instead of through the
  /// peak-rate * intensity * divergence decomposition.
  double estimated_naive_rate_op_per_ns{0.0};
};

/// Initial PTP size: blocks allowed to use PIM so the estimated offloading
/// rate stays at the target.  Clamped to [1, max_blocks].
[[nodiscard]] std::uint32_t initial_ptp_size(const Eq1Inputs& in);

/// Forward evaluation of Equation 1: estimated PIM rate for a pool size.
[[nodiscard]] double estimate_pim_rate(const Eq1Inputs& in, std::uint32_t ptp_size);

}  // namespace coolpim::control
