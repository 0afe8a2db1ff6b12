// MPC-style predictive throttling policy.
//
// The reactive CoolPIM controllers wait for an ERRSTAT warning, which is why
// measured temperature rides the 85 C ceiling (paper Fig. 13).  This policy
// instead rolls the stack's calibrated first-order RC thermal response
// forward K epochs every epoch and picks the *least* throttled of its
// discrete offload levels whose predicted peak stays under the ceiling:
//
//   T_{k+1} = T_ss(level) + (T_k - T_ss(level)) * alpha,   alpha = e^(-dt/tau)
//
// The steady-state target T_ss is estimated online from consecutive sensor
// readings (two points of an exponential determine its asymptote) and EMA
// smoothed; throttling scales the PIM-attributable share of the rise above
// ambient.  Warnings still work as a reactive fallback (model mismatch), and
// the watchdog contract is the shared halving step on the remaining levels.
// The policy is draw-free and deterministic: runner results are bit-identical
// at any --jobs value.
#pragma once

#include <cstdint>

#include "control/degrade.hpp"
#include "control/policy.hpp"

namespace coolpim::control {

/// First-order RC model of the HMC stack (thermal/hmc_thermal.hpp's
/// calibrated response: tau ~ 1.5 ms with the default heat-capacity scale).
struct RcParams {
  double tau_ms{1.5};
  double ambient_c{25.0};
  /// Share of the steady-state rise above ambient attributable to PIM
  /// traffic, i.e. removable by throttling to the deepest level.
  double pim_heat_fraction{0.6};
};

struct MpcConfig {
  std::uint32_t levels{16};   // discrete offload levels (0 = unthrottled)
  std::uint32_t horizon{100}; // epochs rolled forward (~1 ms at 10 us epochs,
                              // covering the sensing delay)
  double threshold_c{85.0};   // the ceiling the prediction must respect
  double guard_c{1.0};        // margin under the ceiling (sensor lag slack)
  double smoothing{0.25};     // EMA weight for the online T_ss estimate
  Time settle_window{Time::ms(2.5)};  // reactive-fallback coalescing window
  Time throttle_delay{Time::us(1.0)};
  RcParams rc{};
};

/// Forward solve of the RC recurrence: peak temperature over `horizon` steps
/// starting from `t0_c` and approaching `t_ss_c` with per-step factor
/// `alpha`.  Exposed so tests can pin the rollout against a hand computation.
[[nodiscard]] double rc_predict_peak(double t0_c, double t_ss_c, double alpha,
                                     unsigned horizon);

/// Online steady-state estimate from two consecutive readings of an
/// exponential approach: T_now = T_ss + (T_prev - T_ss) * alpha.
[[nodiscard]] double rc_infer_steady(double t_prev_c, double t_now_c, double alpha);

class MpcPolicy final : public Policy {
 public:
  explicit MpcPolicy(const MpcConfig& cfg);

  void on_epoch(const Reading& reading, Time now) override;
  using Policy::on_thermal_warning;
  void on_thermal_warning(Time now, Time raised_at) override;
  void on_watchdog_engage(Time now) override;

  [[nodiscard]] double pim_warp_fraction(Time) const override { return allow(level_); }
  [[nodiscard]] std::string_view name() const override { return "CoolPIM (MPC)"; }
  [[nodiscard]] Time throttle_delay() const override { return cfg_.throttle_delay; }
  [[nodiscard]] std::uint64_t adjustments() const override { return adjustments_; }

  [[nodiscard]] std::uint32_t throttle_level() const override { return level_; }
  [[nodiscard]] std::uint32_t max_throttle_level() const override { return cfg_.levels; }

  /// Steady-state estimate currently driving the rollout (C above which the
  /// model believes the unthrottled device would settle).
  [[nodiscard]] double steady_estimate_c() const { return t_ss_est_; }

 private:
  [[nodiscard]] double allow(std::uint32_t level) const {
    return static_cast<double>(cfg_.levels - level) / static_cast<double>(cfg_.levels);
  }
  /// Heating multiplier of a level: 1 at level 0, (1 - pim_heat_fraction)
  /// at the deepest level.
  [[nodiscard]] double heat_scale(std::uint32_t level) const {
    return 1.0 - cfg_.rc.pim_heat_fraction * (1.0 - allow(level));
  }
  void set_level(std::uint32_t level, Time now, const char* why);

  MpcConfig cfg_;
  std::uint32_t level_{0};
  WarningCoalescer coalesce_;
  Time hold_until_{Time::zero()};  // reactive steps pin the level this long
  double t_ss_est_{0.0};
  bool has_estimate_{false};
  double prev_reading_c_{0.0};
  Time prev_time_{Time::zero()};
  bool has_prev_{false};
  std::uint64_t adjustments_{0};
};

}  // namespace coolpim::control
