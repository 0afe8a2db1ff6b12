// Baseline (non-throttling) policies: the paper's naive-offloading and
// non-offloading configurations, expressed as zoo members so the registry
// can build every scenario through one factory.  Neither ever throttles, so
// their level is fixed at 0 of 0.
#pragma once

#include "control/policy.hpp"
#include "obs/names.hpp"

namespace coolpim::control {

/// Offloads everything, ignores warnings: the paper's naive-offloading
/// configuration (PEI-style, no source control).
class NaivePolicy final : public Policy {
 public:
  using Policy::on_thermal_warning;
  void on_thermal_warning(Time now, Time /*raised_at*/) override {
    ++warnings_;
    trace_.instant(now, obs::names::kCatCore, "warning_ignored");
  }
  [[nodiscard]] std::string_view name() const override { return "naive-offloading"; }
  [[nodiscard]] Time throttle_delay() const override { return Time::zero(); }
  [[nodiscard]] std::uint32_t throttle_level() const override { return 0; }
  [[nodiscard]] std::uint32_t max_throttle_level() const override { return 0; }
  [[nodiscard]] std::uint64_t warnings_seen() const { return warnings_; }

 private:
  std::uint64_t warnings_{0};
};

/// Never offloads: the non-offloading baseline.
class NonOffloadingPolicy final : public Policy {
 public:
  using Policy::on_thermal_warning;
  void on_thermal_warning(Time, Time) override {}
  bool acquire_block(Time) override { return false; }
  [[nodiscard]] double pim_warp_fraction(Time) const override { return 0.0; }
  [[nodiscard]] std::string_view name() const override { return "non-offloading"; }
  [[nodiscard]] Time throttle_delay() const override { return Time::zero(); }
  [[nodiscard]] std::uint32_t throttle_level() const override { return 0; }
  [[nodiscard]] std::uint32_t max_throttle_level() const override { return 0; }
};

}  // namespace coolpim::control
