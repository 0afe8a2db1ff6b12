// Shared infrastructure for the perf-benchmark harness (perf_thermal,
// perf_sim): a monotonic stopwatch and a minimal JSON emitter for the
// BENCH_*.json result files validated by tools/check_bench.py.
//
// The perf binaries time whole kernel passes with std::chrono, so each
// measured quantity (ns/cell-substep, events/sec, wall time) maps one-to-one
// onto a JSON field with no statistical post-processing in between.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace coolpim::bench {

/// Wall-clock stopwatch on the monotonic clock.
class StopWatch {
 public:
  StopWatch() : start_{std::chrono::steady_clock::now()} {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double elapsed_sec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_ms() const { return elapsed_sec() * 1e3; }
  [[nodiscard]] double elapsed_ns() const { return elapsed_sec() * 1e9; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal streaming JSON writer -- enough for the flat BENCH_*.json schema.
/// Keys are emitted in call order; numbers are finite (non-finite values are
/// serialized as null so the validator can flag them).
class JsonWriter {
 public:
  JsonWriter() { open('{'); }

  void begin_object(const std::string& key) {
    prefix(key);
    open('{');
  }
  void begin_array(const std::string& key) {
    prefix(key);
    open('[');
  }
  void begin_object() {  // anonymous, for array elements
    element();
    open('{');
  }
  void end() {
    const char c = stack_.back();
    stack_.pop_back();
    out_ << (c == '{' ? '}' : ']');
  }

  void kv(const std::string& key, double v) {
    prefix(key);
    number(v);
  }
  void kv(const std::string& key, std::uint64_t v) {
    prefix(key);
    out_ << v;
  }
  void kv(const std::string& key, int v) {
    prefix(key);
    out_ << v;
  }
  void kv(const std::string& key, bool v) {
    prefix(key);
    out_ << (v ? "true" : "false");
  }
  void kv(const std::string& key, const std::string& v) {
    prefix(key);
    quote(v);
  }
  void kv(const std::string& key, const char* v) { kv(key, std::string{v}); }

  /// Close any open containers (including the root) and return the document.
  [[nodiscard]] std::string str() {
    while (!stack_.empty()) end();
    out_ << '\n';
    return out_.str();
  }

 private:
  void open(char c) {
    stack_.push_back(c);
    first_.push_back(true);
    out_ << c;
  }
  void element() {
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }
  void prefix(const std::string& key) {
    element();
    if (stack_.back() == '{') {
      quote(key);
      out_ << ':';
    }
  }
  void number(double v) {
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    std::ostringstream tmp;
    tmp.precision(9);
    tmp << v;
    out_ << tmp.str();
  }
  void quote(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }

  std::ostringstream out_;
  std::vector<char> stack_;
  std::vector<bool> first_;

  // element() mutates first_.back(); std::vector<bool> references make that
  // awkward to read but are well-defined here (single-threaded, no aliasing).
};

/// Write `content` to `path`; returns false (and prints nothing) on failure.
inline bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Strict argv parser for the perf binaries.  Every flag must be declared up
/// front, as taking a value or as a bare switch; an unknown flag, a value
/// flag at the end of argv, or a malformed number prints a message naming
/// the flag and exits 2, so a typo never runs a bench with silent defaults.
class Args {
 public:
  Args(int argc, char** argv, std::initializer_list<const char*> value_flags,
       std::initializer_list<const char*> switches)
      : prog_{argc > 0 ? argv[0] : "bench"} {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (contains(switches, arg)) {
        values_.emplace_back(arg, "");
      } else if (contains(value_flags, arg)) {
        if (i + 1 >= argc) fail(arg + ": missing value");
        values_.emplace_back(arg, argv[++i]);
      } else {
        fail("unknown option: " + arg);
      }
    }
  }

  /// Value of the last `flag` occurrence, or `fallback`.
  [[nodiscard]] std::string value(const char* flag, const std::string& fallback) const {
    std::string v = fallback;
    for (const auto& [f, val] : values_) {
      if (f == flag) v = val;
    }
    return v;
  }

  /// Non-negative integer value of `flag`, or `fallback`.
  [[nodiscard]] unsigned number(const char* flag, unsigned fallback) const {
    const std::string text = value(flag, std::to_string(fallback));
    char* end = nullptr;
    const unsigned long v = std::strtoul(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || v > 0xffffffffUL) {
      fail(std::string{flag} + ": expected a non-negative integer, got '" + text + "'");
    }
    return static_cast<unsigned>(v);
  }

  /// True if the switch `name` appears in argv.
  [[nodiscard]] bool flag(const char* name) const {
    for (const auto& entry : values_) {
      if (entry.first == name) return true;
    }
    return false;
  }

 private:
  static bool contains(std::initializer_list<const char*> flags, const std::string& arg) {
    for (const char* f : flags) {
      if (arg == f) return true;
    }
    return false;
  }
  [[noreturn]] void fail(const std::string& msg) const {
    std::cerr << prog_ << ": " << msg << "\n";
    std::exit(2);
  }

  std::string prog_;
  std::vector<std::pair<std::string, std::string>> values_;
};

}  // namespace coolpim::bench
