#include "sim/simulation.hpp"

namespace coolpim::sim {

Time Simulation::run_until(Time deadline) {
  while (!queue_.empty()) {
    if (queue_.next_time() > deadline) {
      now_ = deadline;
      return now_;
    }
    auto [t, action] = queue_.pop();
    now_ = t;
    ++events_processed_;
    action();
  }
  if (deadline != Time::max() && now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace coolpim::sim
