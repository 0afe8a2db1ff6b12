#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>

#include "obs/names.hpp"

namespace coolpim::control {

double rc_predict_peak(double t0_c, double t_ss_c, double alpha, unsigned horizon) {
  double t = t0_c;
  double peak = t0_c;
  for (unsigned k = 0; k < horizon; ++k) {
    t = t_ss_c + (t - t_ss_c) * alpha;
    peak = std::max(peak, t);
  }
  return peak;
}

double rc_infer_steady(double t_prev_c, double t_now_c, double alpha) {
  return (t_now_c - alpha * t_prev_c) / (1.0 - alpha);
}

MpcPolicy::MpcPolicy(const MpcConfig& cfg) : cfg_{cfg}, coalesce_{cfg.settle_window} {}

void MpcPolicy::set_level(std::uint32_t level, Time now, const char* why) {
  if (level == level_) return;
  const std::uint32_t before = level_;
  level_ = level;
  ++adjustments_;
  if (counters_ != nullptr) {
    counters_->counter(obs::names::kControlLevelChanges).add();
    counters_->gauge(obs::names::kControlThrottleLevel)
        .set(static_cast<double>(level_));
  }
  if (trace_.enabled()) {
    trace_.instant(now, obs::names::kCatControl, why, {{"from", before}, {"to", level_}});
  }
}

void MpcPolicy::on_epoch(const Reading& reading, Time now) {
  const double t_now = reading.sensed.value();
  if (!has_prev_ || now <= prev_time_) {
    prev_reading_c_ = t_now;
    prev_time_ = now;
    has_prev_ = true;
    return;
  }
  const double dt_ms = (now - prev_time_).as_ms();
  const double alpha = std::exp(-dt_ms / cfg_.rc.tau_ms);
  // alpha -> 1 means the interval carries no steady-state information.
  if (1.0 - alpha > 1e-9) {
    const double raw = rc_infer_steady(prev_reading_c_, t_now, alpha);
    t_ss_est_ = has_estimate_ ? t_ss_est_ + cfg_.smoothing * (raw - t_ss_est_) : raw;
    has_estimate_ = true;
  }
  prev_reading_c_ = t_now;
  prev_time_ = now;
  if (!has_estimate_) return;
  if (counters_ != nullptr) counters_->counter(obs::names::kControlMpcRollouts).add();

  // The estimate reflects heating at the level currently in force; divide its
  // heat multiplier out to recover the unthrottled steady rise, then score
  // every candidate level's predicted peak over the horizon.
  const double rise_now = std::max(0.0, t_ss_est_ - cfg_.rc.ambient_c);
  const double rise_full = rise_now / heat_scale(level_);
  const double limit = cfg_.threshold_c - cfg_.guard_c;
  std::uint32_t chosen = cfg_.levels;  // deepest level if nothing passes
  for (std::uint32_t l = 0; l <= cfg_.levels; ++l) {
    const double t_ss_l = cfg_.rc.ambient_c + rise_full * heat_scale(l);
    if (rc_predict_peak(t_now, t_ss_l, alpha, cfg_.horizon) <= limit) {
      chosen = l;
      break;
    }
  }
  // A reactive warning step pins its floor for the settle window: the model
  // was just proven optimistic, so do not relax below it immediately.
  if (now < hold_until_) chosen = std::max(chosen, level_);
  set_level(chosen, now, "mpc_level");
}

void MpcPolicy::on_thermal_warning(Time now, Time raised_at) {
  if (coalesce_.stale(raised_at)) return;
  coalesce_.mark(raised_at);
  const std::uint32_t step = std::max(1u, cfg_.levels / 8);
  set_level(std::min(cfg_.levels, level_ + step), now, "mpc_warning_step");
  hold_until_ = now + cfg_.settle_window;
}

void MpcPolicy::on_watchdog_engage(Time now) {
  // Shared fail-safe contract: remove at least half the remaining levels,
  // bypassing coalescing (the warning channel is silent).
  const std::uint32_t remaining = cfg_.levels - level_;
  const std::uint32_t step = halving_step(remaining, std::max(1u, cfg_.levels / 8));
  set_level(std::min(cfg_.levels, level_ + std::min(remaining, step)), now,
            "mpc_watchdog_step");
  coalesce_.mark(now);
  hold_until_ = now + cfg_.settle_window;
}

}  // namespace coolpim::control
