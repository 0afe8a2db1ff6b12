#include "control/eq1.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace coolpim::control {

double estimate_pim_rate(const Eq1Inputs& in, std::uint32_t ptp_size) {
  COOLPIM_REQUIRE(in.max_blocks > 0, "max_blocks must be positive");
  const double block_fraction =
      static_cast<double>(std::min(ptp_size, in.max_blocks)) / static_cast<double>(in.max_blocks);
  return in.pim_peak_rate_op_per_ns * in.pim_intensity * block_fraction *
         (1.0 - in.divergent_warp_ratio);
}

std::uint32_t initial_ptp_size(const Eq1Inputs& in) {
  COOLPIM_REQUIRE(in.max_blocks > 0, "max_blocks must be positive");
  COOLPIM_REQUIRE(in.target_rate_op_per_ns > 0, "target rate must be positive");
  if (in.estimated_naive_rate_op_per_ns > 0.0) {
    const double blocks = in.target_rate_op_per_ns / in.estimated_naive_rate_op_per_ns *
                          static_cast<double>(in.max_blocks);
    const std::uint64_t with_margin =
        static_cast<std::uint64_t>(std::ceil(blocks)) + in.margin_blocks;
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(with_margin, 1, in.max_blocks));
  }
  const double per_block =
      in.pim_peak_rate_op_per_ns * in.pim_intensity * (1.0 - in.divergent_warp_ratio) /
      static_cast<double>(in.max_blocks);
  if (per_block <= 0.0) {
    // Workload offloads nothing measurable: allow everything.
    return in.max_blocks;
  }
  const double blocks = in.target_rate_op_per_ns / per_block;
  const auto computed = static_cast<std::uint32_t>(std::ceil(blocks));
  const std::uint64_t with_margin = static_cast<std::uint64_t>(computed) + in.margin_blocks;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(with_margin, 1, in.max_blocks));
}

}  // namespace coolpim::control
