// Software-based dynamic throttling (SW-DynT, paper IV-B).
//
// GPU-runtime mechanism: a PIM token pool bounds the number of PIM-enabled
// CUDA blocks.  Thermal warnings raise a host interrupt; the handler shrinks
// the pool by the control factor.  Reaction is slow (T_throttle ~ 0.1 ms of
// interrupt plus block-drain latency) and repeated warnings within the
// thermal response window are coalesced so one temperature excursion causes
// one reduction step.
#pragma once

#include "common/units.hpp"
#include "control/degrade.hpp"
#include "control/eq1.hpp"
#include "control/policy.hpp"
#include "control/token_pool.hpp"

namespace coolpim::control {

struct SwDynTConfig {
  std::uint32_t control_factor{4};       // blocks removed per warning
  Time throttle_delay{Time::us(100.0)};  // interrupt + runtime reaction
  /// Minimum spacing between pool reductions: one step per thermal response
  /// window, so a single excursion is not counted many times.
  Time update_interval{Time::ms(2.5)};
  Eq1Inputs eq1{};                       // static initialization inputs
  bool use_static_init{true};
};

class SwDynT final : public Policy {
 public:
  explicit SwDynT(const SwDynTConfig& cfg);

  using Policy::on_thermal_warning;
  void on_thermal_warning(Time now, Time raised_at) override;
  void on_watchdog_engage(Time now) override;
  bool acquire_block(Time now) override;
  void release_block(Time now) override;
  [[nodiscard]] std::string_view name() const override { return "CoolPIM (SW)"; }
  [[nodiscard]] Time throttle_delay() const override { return cfg_.throttle_delay; }
  [[nodiscard]] std::uint64_t adjustments() const override { return pool_.shrink_count(); }

  /// Level = tokens removed from the statically initialized pool.
  [[nodiscard]] std::uint32_t throttle_level() const override {
    return initial_size_ - pool_.size();
  }
  [[nodiscard]] std::uint32_t max_throttle_level() const override { return initial_size_; }

  [[nodiscard]] const TokenPool& pool() const { return pool_; }
  [[nodiscard]] std::uint32_t initial_pool_size() const { return initial_size_; }
  [[nodiscard]] std::uint64_t warnings_received() const { return warnings_; }
  [[nodiscard]] std::uint64_t shadow_launches() const { return shadow_launches_; }

 private:
  void apply_pending_shrink(Time now);

  SwDynTConfig cfg_;
  std::uint32_t initial_size_;
  TokenPool pool_;
  Time pending_until_{Time::zero()};   // pending interrupt completion
  bool has_pending_{false};
  WarningCoalescer coalesce_;
  std::uint64_t warnings_{0};
  std::uint64_t shadow_launches_{0};
};

}  // namespace coolpim::control
