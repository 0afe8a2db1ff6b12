#include "control/sw_dynt.hpp"
#include "obs/names.hpp"

#include <algorithm>

namespace coolpim::control {

SwDynT::SwDynT(const SwDynTConfig& cfg)
    : cfg_{cfg},
      initial_size_{cfg.use_static_init ? initial_ptp_size(cfg.eq1) : cfg.eq1.max_blocks},
      pool_{initial_size_},
      coalesce_{cfg.update_interval} {}

void SwDynT::on_thermal_warning(Time now, Time raised_at) {
  ++warnings_;
  // Coalesce warnings within the thermal response window, keyed on the time
  // the device *raised* the warning: a delayed or out-of-order duplicate of
  // an already-handled excursion is stale and must not shrink the pool again.
  if (coalesce_.stale(raised_at)) return;
  // The interrupt handler runs after T_throttle; model by making the shrink
  // visible only from `now + throttle_delay` (blocks launched before that
  // still see the old pool).
  if (has_pending_) return;
  has_pending_ = true;
  pending_until_ = now + cfg_.throttle_delay;
  coalesce_.mark(raised_at);
  // The accepted warning's interrupt-to-effect latency as a span.
  trace_.complete(now, cfg_.throttle_delay, obs::names::kCatCore, "sw_dynt_interrupt");
}

void SwDynT::on_watchdog_engage(Time now) {
  // Fail-safe degrade with the warning channel silent: the shared halving
  // contract on the PTP pool, applied immediately.  Halving converges in a
  // few steps even when every warning is lost.
  if (has_pending_ && now >= pending_until_) apply_pending_shrink(now);
  const std::uint32_t before = pool_.size();
  pool_.shrink(halving_step(before, cfg_.control_factor));
  coalesce_.mark(now);
  if (trace_.enabled()) {
    trace_.instant(now, obs::names::kCatCore, "watchdog_ptp_shrink",
                   {{"from", before}, {"to", pool_.size()}});
  }
}

void SwDynT::apply_pending_shrink(Time now) {
  const std::uint32_t before = pool_.size();
  pool_.shrink(cfg_.control_factor);
  has_pending_ = false;
  if (trace_.enabled()) {
    trace_.instant(now, obs::names::kCatCore, "ptp_shrink",
                   {{"from", before}, {"to", pool_.size()}, {"issued", pool_.issued()}});
  }
}

bool SwDynT::acquire_block(Time now) {
  if (has_pending_ && now >= pending_until_) apply_pending_shrink(now);
  if (pool_.try_acquire()) return true;
  ++shadow_launches_;
  return false;
}

void SwDynT::release_block(Time now) {
  if (has_pending_ && now >= pending_until_) apply_pending_shrink(now);
  pool_.release();
}

}  // namespace coolpim::control
