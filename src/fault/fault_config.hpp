// Fault-injection configuration for the thermal-warning control loop.
//
// CoolPIM's controllers close their loop over a real serial link: ERRSTAT
// warning bits ride response-packet tails, the host's temperature view is a
// coarse delayed register, and links drop, corrupt and re-train.  This
// config describes a *deterministic* fault environment: every rate below is
// sampled from an Rng stream derived from the run's seed (fault::FaultPlan),
// so a given (experiment key, fault config) produces bit-identical faults at
// any --jobs count.
//
// The default-constructed config is the fault-free environment and is
// behaviour-neutral by construction: SystemConfig carries a FaultConfig
// unconditionally, but the simulator only instantiates the fault path -- and
// runner::config_hash only hashes these fields -- when enabled() is true, so
// pre-existing experiment keys, seeds and golden results are unchanged.
#pragma once

#include "common/error.hpp"
#include "common/units.hpp"
#include "hmc/link_model.hpp"

namespace coolpim::fault {

/// Fail-safe watchdog (graceful degradation, consuming side).  If no warning
/// feedback arrives within `window` while the host-visible temperature is
/// near the warning threshold and not falling, the controller is forced into
/// a conservative degrade step (control::Policy::on_watchdog_engage)
/// rather than running open-loop hot.  Active only when the fault layer as a
/// whole is enabled.
struct WatchdogConfig {
  bool enabled{true};
  /// Warning silence tolerated while armed before the first degrade step.
  Time window{Time::ms(3.0)};
  /// Arm when the host-visible temperature exceeds warning_threshold - margin.
  double arm_margin_c{2.5};
  /// Minimum spacing between successive forced degrade steps.
  Time min_interval{Time::ms(1.5)};
  /// Low-pass time constant for the temperature the watchdog reasons about.
  /// The raw per-epoch reading swings several degrees with the engine's
  /// serve bursts; un-smoothed, a single cool sample disarms the watchdog
  /// and the silence window never completes.  Zero disables smoothing.
  Time smoothing{Time::us(500.0)};
  bool operator==(const WatchdogConfig&) const = default;
};

struct FaultConfig {
  // --- Warning-channel faults (response-packet tail ERRSTAT) ---
  /// Probability that a raised warning is lost in flight with nothing for
  /// the CRC to catch (silent response drop).
  double warning_drop_rate{0.0};
  /// Probability that a raised warning's packet is corrupted in flight.
  /// The CRC detects it and the link replays the packet (LinkRetryPolicy
  /// backoff per attempt); each replay re-rolls this rate, and exhausting
  /// max_retries loses the warning.
  double errstat_corrupt_rate{0.0};
  /// Per-epoch probability of a *false* warning reaching the host (an
  /// escaped ERRSTAT bit flip on a clean response).
  double spurious_warning_rate{0.0};
  /// Extra uniform [0, max] delivery delay on every surviving warning.
  Time warning_delay_max{Time::zero()};

  // --- Sensor faults (host-visible temperature conditioning) ---
  double sensor_noise_sigma_c{0.0};   // Gaussian read noise
  double sensor_quantization_c{0.0};  // register granularity (0 = exact)
  double sensor_stuck_rate{0.0};      // per-epoch stuck-at entry probability
  Time sensor_stuck_duration{Time::ms(2.0)};

  // --- Transient link outages (no warnings delivered at all while down) ---
  double link_outage_rate{0.0};       // per-epoch outage-start probability
  Time link_outage_duration{Time::us(200.0)};

  hmc::LinkRetryPolicy retry{};
  WatchdogConfig watchdog{};

  /// Turn the resilience layer (watchdog, fault accounting) on even with
  /// every injection rate at zero.
  bool force_enable{false};

  bool operator==(const FaultConfig&) const = default;

  /// True when any fault path must be instantiated.  The zero-rate default
  /// returns false, which is what keeps fault-free runs bit-identical to the
  /// pre-fault-layer simulator.
  [[nodiscard]] bool enabled() const {
    return force_enable || warning_drop_rate > 0.0 || errstat_corrupt_rate > 0.0 ||
           spurious_warning_rate > 0.0 || warning_delay_max > Time::zero() ||
           sensor_noise_sigma_c > 0.0 || sensor_quantization_c > 0.0 ||
           sensor_stuck_rate > 0.0 || link_outage_rate > 0.0;
  }

  void validate() const {
    auto rate = [](double r, const char* what) {
      COOLPIM_REQUIRE(r >= 0.0 && r <= 1.0, std::string{what} + " must be in [0, 1]");
    };
    rate(warning_drop_rate, "warning_drop_rate");
    rate(errstat_corrupt_rate, "errstat_corrupt_rate");
    rate(spurious_warning_rate, "spurious_warning_rate");
    rate(sensor_stuck_rate, "sensor_stuck_rate");
    rate(link_outage_rate, "link_outage_rate");
    COOLPIM_REQUIRE(sensor_noise_sigma_c >= 0.0, "sensor_noise_sigma_c must be >= 0");
    COOLPIM_REQUIRE(sensor_quantization_c >= 0.0, "sensor_quantization_c must be >= 0");
    COOLPIM_REQUIRE(warning_delay_max >= Time::zero(), "warning_delay_max must be >= 0");
    COOLPIM_REQUIRE(sensor_stuck_duration > Time::zero(),
                    "sensor_stuck_duration must be positive");
    COOLPIM_REQUIRE(link_outage_duration > Time::zero(),
                    "link_outage_duration must be positive");
    COOLPIM_REQUIRE(retry.backoff_factor >= 1.0, "retry backoff_factor must be >= 1");
    COOLPIM_REQUIRE(retry.backoff_base > Time::zero(), "retry backoff_base must be positive");
    COOLPIM_REQUIRE(retry.backoff_cap >= retry.backoff_base,
                    "retry backoff_cap must be >= backoff_base");
    COOLPIM_REQUIRE(watchdog.window > Time::zero(), "watchdog window must be positive");
    COOLPIM_REQUIRE(watchdog.min_interval > Time::zero(),
                    "watchdog min_interval must be positive");
    COOLPIM_REQUIRE(watchdog.arm_margin_c >= 0.0, "watchdog arm_margin_c must be >= 0");
    COOLPIM_REQUIRE(watchdog.smoothing >= Time::zero(), "watchdog smoothing must be >= 0");
  }
};

}  // namespace coolpim::fault
