// Wall-clock spans recorded by the benchmark binary around the simulator's
// public calls (experiment, SystemRun construction, advance(), thermal
// step(), ...).  The simulator's own obs:: layer stamps simulated time only,
// so host time is measured here, from outside, and never merged into it.
//
// One SpanLog per thread: spans stay in memory and are merged into a Chrome
// trace_event file when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace coolpim::e2e {

struct Span {
  std::string_view name;  // the public call, e.g. "SystemRun::advance"
  std::string_view cat;   // the layer it belongs to, e.g. "sys"
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  // index into the same log; -1 for a root span
  std::uint32_t experiment{0};

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Opens a span as a child of the innermost open span; returns its index.
  std::int32_t open(std::string_view name, std::string_view cat, std::uint32_t experiment) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, cat, now_ns(), 0, open_.empty() ? -1 : open_.back(), experiment});
    open_.push_back(index);
    return index;
  }

  /// Closes the innermost open span, which must be `index`.
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double ms(std::int32_t index) const {
    return spans_[static_cast<std::size_t>(index)].ms();
  }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const {
    double ms = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) ms += s.ms();
    }
    return ms;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Chrome trace_event JSON: one complete ("X") event per span, one tid per
/// log, timestamps in microseconds from `origin_ns`.
inline void write_chrome_trace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                               std::int64_t origin_ns) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1"
         << ",\"tid\":" << tid << ",\"ts\":" << static_cast<double>(s.start_ns - origin_ns) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ",\"args\":{\"experiment\":" << s.experiment << ",\"parent\":" << s.parent << "}}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace coolpim::e2e
