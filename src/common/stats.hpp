// Streaming summary statistics for sampled quantities (request latencies in
// the event-detailed models).  Event tallies go through obs::CounterRegistry
// (obs/counters.hpp); a component that needs a total itself keeps a plain
// integer member.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace coolpim {

/// Streaming summary of a sampled quantity: count / mean / min / max /
/// variance via Welford's algorithm (numerically stable for long runs).
class Summary {
 public:
  void record(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    last_ = x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double last() const { return last_; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
  double last_{0.0};
};

}  // namespace coolpim
