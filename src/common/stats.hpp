// Lightweight statistics collection.
//
// Components expose named counters and distributions through a StatSet so
// that experiment harnesses can dump everything a run produced without each
// bench knowing component internals.  No global registry: each component owns
// its StatSet and parents aggregate explicitly (Core Guidelines I.2 -- avoid
// non-const global variables).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace coolpim {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_{0};
};

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
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = Summary{}; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
  double last_{0.0};
};

/// Named bag of counters/summaries; the dump format is consumed by benches.
class StatSet {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Summary& summary(const std::string& name) { return summaries_[name]; }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Summary>& summaries() const { return summaries_; }

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  void reset() {
    for (auto& [_, c] : counters_) c.reset();
    for (auto& [_, s] : summaries_) s.reset();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace coolpim
