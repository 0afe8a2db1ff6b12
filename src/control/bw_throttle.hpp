// Alternative policy for comparison: blanket bandwidth throttling.
//
// Instead of selectively reducing PIM offloads (CoolPIM), this controller
// slows *all* GPU memory traffic on a thermal warning -- the obvious
// baseline a designer might try first (equivalent to host-side rate limiting
// or memory-clock DVFS on the GPU side).  It cools the cube just as well but
// gives up throughput on regular requests too, which is exactly the
// trade-off the paper's source-side approach avoids: the heat comes
// disproportionately from PIM's internal read-modify-write traffic, so
// trimming PIM first buys more cooling per lost byte.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "control/degrade.hpp"
#include "control/policy.hpp"
#include "obs/names.hpp"

namespace coolpim::control {

struct BwThrottleConfig {
  /// Multiplicative reduction of the admitted demand per accepted warning.
  double reduction_step{0.10};
  /// Smallest admitted fraction (never stall completely).
  double floor{0.20};
  Time settle_window{Time::ms(2.5)};
  Time throttle_delay{Time::us(1.0)};
};

/// Offloads everything (like naive) but clamps the total demand the GPU
/// issues when warnings arrive.  The engine consumes `demand_scale()`.
class BwThrottle final : public Policy {
 public:
  explicit BwThrottle(const BwThrottleConfig& cfg = {})
      : cfg_{cfg}, coalesce_{cfg.settle_window} {}

  using Policy::on_thermal_warning;
  void on_thermal_warning(Time now, Time raised_at) override {
    // Coalesce on the raise time so delayed duplicates stay one step.
    if (coalesce_.stale(raised_at)) return;
    const double before = admit_;
    admit_ = std::max(cfg_.floor, admit_ * (1.0 - cfg_.reduction_step));
    coalesce_.mark(raised_at);
    ++reductions_;
    if (trace_.enabled()) {
      trace_.instant(now, obs::names::kCatCore, "bw_admit_reduce", {{"from", before}, {"to", admit_}});
    }
  }

  void on_watchdog_engage(Time now) override {
    // Fail-safe degrade: the shared halving contract on the admitted demand,
    // bypassing the settle window (the warning channel is silent, so nothing
    // to over-count).
    const double before = admit_;
    admit_ = halved_fraction(admit_, cfg_.floor);
    coalesce_.mark(now);
    ++reductions_;
    if (trace_.enabled()) {
      trace_.instant(now, obs::names::kCatCore, "watchdog_bw_reduce", {{"from", before}, {"to", admit_}});
    }
  }

  [[nodiscard]] std::string_view name() const override { return "BW-Throttle"; }
  [[nodiscard]] Time throttle_delay() const override { return cfg_.throttle_delay; }
  [[nodiscard]] std::uint64_t adjustments() const override { return reductions_; }

  /// Level = denied fraction of total demand in milli-units; the admittance
  /// floor saturates the degrade paths short of the maximum.
  [[nodiscard]] std::uint32_t throttle_level() const override {
    return static_cast<std::uint32_t>(std::lround((1.0 - admit_) * 1000.0));
  }
  [[nodiscard]] std::uint32_t max_throttle_level() const override { return 1000; }
  [[nodiscard]] std::uint32_t saturation_level() const override {
    return static_cast<std::uint32_t>(std::lround((1.0 - cfg_.floor) * 1000.0));
  }

  /// Fraction of total GPU demand currently admitted.
  [[nodiscard]] double demand_scale(Time) const override { return admit_; }

 private:
  BwThrottleConfig cfg_;
  double admit_{1.0};
  WarningCoalescer coalesce_;
  std::uint64_t reductions_{0};
};

}  // namespace coolpim::control
