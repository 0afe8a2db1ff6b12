// Simulation kernel: owns the clock and the event queue, drives components.
//
// This is the stand-in for SST in the paper's infrastructure.  Components
// schedule one-shot events (a self-rescheduling event is a tick); the kernel
// runs the event loop until the queue drains or a deadline passes.
// Single-threaded and deterministic.
#pragma once

#include <cstdint>
#include <utility>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace coolpim::sim {

class Simulation {
 public:
  Simulation() = default;

  [[nodiscard]] Time now() const { return now_; }

  /// One-shot event after a delay from now.
  void schedule_in(Time delay, EventAction action) {
    queue_.schedule(now_ + delay, std::move(action));
  }

  /// One-shot event at an absolute time.
  void schedule_at(Time t, EventAction action) { queue_.schedule(t, std::move(action)); }

  /// Run until the queue drains or `deadline` passes, whichever is first.
  /// Returns the simulated time reached.
  Time run_until(Time deadline);

  /// Run until the queue drains completely.
  Time run_to_completion() { return run_until(Time::max()); }

  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }
  [[nodiscard]] bool pending() const { return !queue_.empty(); }

 private:
  EventQueue queue_;
  Time now_{Time::zero()};
  std::uint64_t events_processed_{0};
};

}  // namespace coolpim::sim
