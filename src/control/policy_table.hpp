// Offline-fitted policy-table controller.
//
// The imitation-learning shortcut to a predictive controller: instead of
// solving a model online (MPC), sweep the simulator offline, fit a
// temperature -> admitted-PIM-fraction table (tools/fit_policy.py), check the
// table in, and replay it at run time with a clamped bin lookup.  The table
// maps the *sensed* peak DRAM temperature to the fraction of warps allowed
// to emit PIM instructions each epoch; warnings ratchet a multiplicative cap
// below the table's target when the fitted curve proves optimistic, and the
// watchdog applies the shared halving contract to the effective allowance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/degrade.hpp"
#include "control/policy.hpp"

namespace coolpim::control {

/// Uniform-bin lookup table: bin i covers
/// [t_min_c + i*bin_width_c, t_min_c + (i+1)*bin_width_c); readings outside
/// the covered range clamp to the boundary bins.
struct PolicyTable {
  double t_min_c{79.0};
  double bin_width_c{1.0};
  /// Admitted PIM fraction per bin, fitted offline (tools/fit_policy.py and
  /// the checked-in tools/policy_table_default.csv carry the same curve).
  std::vector<double> allow{1.0, 0.9, 0.8, 0.65, 0.5, 0.35, 0.2, 0.1};

  /// Clamped bin lookup; sets `*clamped` when the reading fell outside the
  /// covered range (boundary-bin behaviour, pinned by tests).
  [[nodiscard]] double lookup(double temp_c, bool* clamped = nullptr) const;

  /// Throws ConfigError unless bins are non-empty, the width positive, and
  /// every entry in (0, 1].
  void validate() const;

  bool operator==(const PolicyTable&) const = default;
};

/// The compiled-in default curve (same values as the struct initializers).
[[nodiscard]] PolicyTable default_policy_table();

/// Load a fitted table from CSV ("temp_c,allow" rows, uniformly spaced
/// ascending temperatures, '#' comments); throws ConfigError on malformed
/// input.  The format is what tools/fit_policy.py emits.
[[nodiscard]] PolicyTable load_policy_table(const std::string& path);

struct PolicyTableConfig {
  PolicyTable table{};
  /// Multiplicative cap reduction per accepted (non-stale) warning.
  double reduction_step{0.25};
  /// Smallest effective allowance (never stall PIM completely).
  double floor{0.05};
  Time settle_window{Time::ms(2.5)};
  Time throttle_delay{Time::us(1.0)};
};

class TablePolicy final : public Policy {
 public:
  explicit TablePolicy(const PolicyTableConfig& cfg);

  void on_epoch(const Reading& reading, Time now) override;
  using Policy::on_thermal_warning;
  void on_thermal_warning(Time now, Time raised_at) override;
  void on_watchdog_engage(Time now) override;

  [[nodiscard]] double pim_warp_fraction(Time) const override { return effective_allow(); }
  [[nodiscard]] std::string_view name() const override { return "Policy-Table"; }
  [[nodiscard]] Time throttle_delay() const override { return cfg_.throttle_delay; }
  [[nodiscard]] std::uint64_t adjustments() const override { return adjustments_; }

  /// Level is the denied fraction in milli-units so one warning step is
  /// always visible in the integer contract metric.
  [[nodiscard]] std::uint32_t throttle_level() const override;
  [[nodiscard]] std::uint32_t max_throttle_level() const override { return 1000; }
  [[nodiscard]] std::uint32_t saturation_level() const override;

  /// min(table target, warning-ratcheted cap) -- what the engine sees.
  [[nodiscard]] double effective_allow() const { return std::min(target_, cap_); }

 private:
  PolicyTableConfig cfg_;
  double target_{1.0};  // table lookup of the latest reading
  double cap_{1.0};     // reactive ratchet, only ever lowered
  WarningCoalescer coalesce_;
  std::uint64_t adjustments_{0};
};

}  // namespace coolpim::control
