// Deterministic, seeded fault injection for the warning feedback loop.
//
// A FaultPlan owns one Rng stream forked from the run's seed and drives every
// injection point the fault layer models:
//
//  * warning-channel faults on the device -> host path: silent drops,
//    CRC-detected ERRSTAT corruption replayed with capped exponential backoff
//    (hmc::LinkRetryPolicy), bounded extra delivery delay, and spurious
//    (false-positive) warnings;
//  * sensor conditioning of the host-visible temperature: quantization,
//    Gaussian noise, stuck-at intervals;
//  * transient link outages during which nothing is delivered.
//
// Delayed deliveries ride a sim::EventQueue, so ordering is the queue's
// deterministic (time, seq) total order.  Every decision is a pure function
// of (config, seed, call sequence): the system model calls the hooks in a
// fixed per-epoch order, which is what makes fault patterns bit-identical
// across --jobs counts (the runner derives the seed from the experiment key,
// fault config included).
//
// Observability: every injected and detected fault is a `fault/*` counter
// and a category-"fault" trace instant (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/fault_config.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace coolpim::fault {

class FaultPlan {
 public:
  FaultPlan(const FaultConfig& cfg, std::uint64_t run_seed);

  void set_observer(obs::Trace trace, obs::CounterRegistry* counters);

  /// Advance outage / stuck-sensor state to the start of the epoch ending at
  /// `now`.  Must be called once per epoch, before the other hooks.
  void begin_epoch(Time now);

  /// Host-visible temperature: the true sensed value passed through the
  /// sensor fault chain (stuck-at, then noise, then quantization).
  [[nodiscard]] Celsius condition_reading(Time now, Celsius actual);

  /// The device raised a thermal warning at `now`.  Rolls the warning's
  /// in-flight fate; survivors are enqueued for delivery (possibly delayed
  /// by retries and/or the uniform extra delay).
  void offer_warning(Time now);

  /// Roll the epoch's spurious-warning injection (an escaped ERRSTAT bit
  /// flip on an otherwise clean response).
  void maybe_spurious(Time now);

  /// A delivered warning: when it arrived and when the device raised it
  /// (raised_at == at on an undisturbed channel; controllers coalesce on the
  /// raise time).
  struct Delivery {
    Time at;
    Time raised_at;
    bool spurious{false};
  };

  /// Drain and return every delivery due at or before `now`, in delivery
  /// order.  Call after offer_warning()/maybe_spurious() for the epoch.
  [[nodiscard]] std::vector<Delivery> collect_due(Time now);

  struct Stats {
    std::uint64_t warnings_offered{0};
    std::uint64_t warnings_delivered{0};
    std::uint64_t warnings_dropped{0};
    std::uint64_t warnings_corrupted{0};  // CRC-detected at least once
    std::uint64_t warnings_delayed{0};
    std::uint64_t warnings_lost_outage{0};
    std::uint64_t retries{0};
    std::uint64_t retry_giveups{0};
    std::uint64_t spurious_warnings{0};
    std::uint64_t link_outages{0};
    std::uint64_t sensor_stuck_epochs{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] bool in_outage() const { return in_outage_; }
  [[nodiscard]] bool sensor_stuck() const { return sensor_stuck_; }
  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

 private:
  /// Route one surviving warning (possibly after retries) into the queue.
  void enqueue_delivery(Time raised_at, Time deliver_at, bool spurious);

  FaultConfig cfg_;
  Rng rng_;
  sim::EventQueue pending_;
  std::vector<Delivery> due_;

  bool in_outage_{false};
  Time outage_until_{Time::zero()};
  bool sensor_stuck_{false};
  Time stuck_until_{Time::zero()};
  Celsius stuck_value_{0.0};
  bool have_stuck_value_{false};

  Stats stats_;
  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::fault
