// Fail-safe watchdog for the warning feedback loop (graceful degradation).
//
// The controllers are purely reactive: no warning, no throttling.  On a
// faulty link that is exactly the failure mode that cooks the stack -- the
// device is hot, its warnings are being dropped, and the source runs
// open-loop at full rate.  The watchdog closes a slow local loop over the
// host-visible (possibly degraded) temperature: when that reading is near
// the warning threshold and not falling, and no warning has arrived within
// the configured window, it forces the controller into a conservative
// degrade step (control::Policy::on_watchdog_engage), repeating every
// min_interval until feedback resumes or the stack cools.
//
// Deterministic and draw-free: engagement is a pure function of the delivery
// and temperature sequence, so it perturbs no RNG stream.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "fault/fault_config.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace coolpim::fault {

class Watchdog {
 public:
  Watchdog(const WatchdogConfig& cfg, Celsius warning_threshold)
      : cfg_{cfg}, threshold_{warning_threshold} {}

  void set_observer(obs::Trace trace, obs::CounterRegistry* counters) {
    trace_ = trace;
    counters_ = counters;
  }

  /// A genuine warning delivery reached the controller: feedback is alive.
  void on_delivery(Time now);

  /// Epoch tick with the host-visible temperature.  Returns true when the
  /// controller must take a conservative degrade step now.
  [[nodiscard]] bool tick(Time now, Celsius seen);

  [[nodiscard]] bool engaged() const { return engaged_; }
  /// Low-passed temperature the arm/engage decisions are made on.
  [[nodiscard]] double level() const { return level_; }
  [[nodiscard]] std::uint64_t engagements() const { return engagements_; }
  [[nodiscard]] std::uint64_t disengagements() const { return disengagements_; }
  [[nodiscard]] const WatchdogConfig& config() const { return cfg_; }

 private:
  void disengage(Time now, const char* why);

  WatchdogConfig cfg_;
  Celsius threshold_;

  bool armed_{false};
  Time armed_since_{Time::zero()};
  bool engaged_{false};
  Time last_delivery_{Time::ps(-1)};
  bool saw_delivery_{false};
  Time last_engage_{Time::ps(-1)};
  double level_{0.0};  // low-passed host-visible temperature (deg C)
  bool have_level_{false};
  Time last_tick_{Time::zero()};

  std::uint64_t engagements_{0};
  std::uint64_t disengagements_{0};

  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::fault
