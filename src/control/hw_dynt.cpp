#include "control/hw_dynt.hpp"
#include "obs/names.hpp"

#include <algorithm>

namespace coolpim::control {

void HwDynT::on_thermal_warning(Time now, Time raised_at) {
  // Delayed control updates: accept at most one reduction per settle window,
  // keyed on the time the warning was *raised* so delayed or out-of-order
  // duplicates of an already-handled excursion stay coalesced.
  if (coalesce_.stale(raised_at)) return;

  previous_warps_ = enabled_warps_;
  enabled_warps_ = enabled_warps_ > cfg_.control_factor
                       ? enabled_warps_ - cfg_.control_factor
                       : 0;
  has_pending_ = true;
  effective_at_ = now + cfg_.throttle_delay;
  coalesce_.mark(raised_at);
  ++reductions_;
  if (trace_.enabled()) {
    // PCU update latency as a span, the warp-disable step as an instant.
    trace_.complete(now, cfg_.throttle_delay, obs::names::kCatCore, "hw_dynt_pcu_update");
    trace_.instant(now, obs::names::kCatCore, "warp_disable",
                   {{"from", previous_warps_}, {"to", enabled_warps_}});
  }
}

void HwDynT::on_watchdog_engage(Time now) {
  // Fail-safe degrade with the warning channel silent: the shared halving
  // contract on the enabled warps, bypassing the settle window -- there is
  // no feedback to over-count.
  previous_warps_ = enabled_warps_;
  const std::uint32_t step = halving_step(enabled_warps_, cfg_.control_factor);
  enabled_warps_ = enabled_warps_ > step ? enabled_warps_ - step : 0;
  has_pending_ = true;
  effective_at_ = now + cfg_.throttle_delay;
  coalesce_.mark(now);
  ++reductions_;
  if (trace_.enabled()) {
    trace_.instant(now, obs::names::kCatCore, "watchdog_warp_disable",
                   {{"from", previous_warps_}, {"to", enabled_warps_}});
  }
}

double HwDynT::pim_warp_fraction(Time now) const {
  const std::uint32_t current =
      (has_pending_ && now < effective_at_) ? previous_warps_ : enabled_warps_;
  return static_cast<double>(current) / static_cast<double>(cfg_.max_warps_per_sm);
}

}  // namespace coolpim::control
