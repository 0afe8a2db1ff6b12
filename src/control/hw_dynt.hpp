// Hardware-based dynamic throttling (HW-DynT, paper IV-C).
//
// A PIM Control Unit (PCU) in each GPU core tracks how many warps may emit
// PIM instructions.  On a thermal warning the PCU reduces the PIM-enabled
// warp count by the control factor; PIM-disabled warps have their PIM
// instructions translated back to CUDA atomics at decode, so the effect is
// immediate (T_throttle ~ 0.1 us).  Updates are deliberately *delayed*: the
// PCU ignores further warnings until the HMC temperature has had time to
// settle (~1 ms), preventing over-reduction during the thermal transient.
// No static initialization is needed -- the count starts at maximum.
#pragma once

#include "common/units.hpp"
#include "control/degrade.hpp"
#include "control/policy.hpp"

namespace coolpim::control {

struct HwDynTConfig {
  std::uint32_t max_warps_per_sm{64};
  std::uint32_t control_factor{4};       // warps disabled per accepted warning
  Time throttle_delay{Time::us(0.1)};    // PCU update latency
  Time settle_window{Time::ms(2.5)};     // delayed-update window (sensor delay + ~2 thermal taus)
};

class HwDynT final : public Policy {
 public:
  explicit HwDynT(const HwDynTConfig& cfg)
      : cfg_{cfg}, enabled_warps_{cfg.max_warps_per_sm}, coalesce_{cfg.settle_window} {}

  using Policy::on_thermal_warning;
  void on_thermal_warning(Time now, Time raised_at) override;
  void on_watchdog_engage(Time now) override;
  [[nodiscard]] double pim_warp_fraction(Time now) const override;
  [[nodiscard]] std::string_view name() const override { return "CoolPIM (HW)"; }
  [[nodiscard]] Time throttle_delay() const override { return cfg_.throttle_delay; }
  [[nodiscard]] std::uint64_t adjustments() const override { return reductions_; }

  /// Level = warps disabled below the per-SM maximum.
  [[nodiscard]] std::uint32_t throttle_level() const override {
    return cfg_.max_warps_per_sm - enabled_warps_;
  }
  [[nodiscard]] std::uint32_t max_throttle_level() const override {
    return cfg_.max_warps_per_sm;
  }

  [[nodiscard]] std::uint32_t enabled_warps() const { return enabled_warps_; }

 private:
  HwDynTConfig cfg_;
  std::uint32_t enabled_warps_;
  Time effective_at_{Time::zero()};   // when the latest reduction takes effect
  std::uint32_t previous_warps_{0};   // value before the pending reduction
  bool has_pending_{false};
  WarningCoalescer coalesce_;
  std::uint32_t reductions_{0};
};

}  // namespace coolpim::control
