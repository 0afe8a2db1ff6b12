// Strongly-typed physical quantities used throughout the CoolPIM stack.
//
// The simulator couples four domains -- timing (picoseconds), energy/power
// (joules/watts), temperature (degrees Celsius) and bandwidth (bytes per
// second).  Mixing these up is the classic source of silent modelling bugs,
// so each domain gets its own vocabulary type.  All types are trivially
// copyable value types with constexpr arithmetic; there is no runtime cost
// over raw doubles/int64s.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace coolpim {

/// Simulated time.  Integer picoseconds: at 1.4 GHz one cycle is ~714 ps, so
/// picosecond resolution represents every clock in the system exactly enough,
/// and int64 gives ~106 days of range -- far beyond any run we do.
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time ps(std::int64_t v) { return Time{v}; }
  [[nodiscard]] static constexpr Time ns(double v) {
    return Time{static_cast<std::int64_t>(v * 1e3)};
  }
  [[nodiscard]] static constexpr Time us(double v) {
    return Time{static_cast<std::int64_t>(v * 1e6)};
  }
  [[nodiscard]] static constexpr Time ms(double v) {
    return Time{static_cast<std::int64_t>(v * 1e9)};
  }
  [[nodiscard]] static constexpr Time sec(double v) {
    return Time{static_cast<std::int64_t>(v * 1e12)};
  }
  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  [[nodiscard]] static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t as_ps() const { return ps_; }
  [[nodiscard]] constexpr double as_ns() const { return static_cast<double>(ps_) * 1e-3; }
  [[nodiscard]] constexpr double as_us() const { return static_cast<double>(ps_) * 1e-6; }
  [[nodiscard]] constexpr double as_ms() const { return static_cast<double>(ps_) * 1e-9; }
  [[nodiscard]] constexpr double as_sec() const { return static_cast<double>(ps_) * 1e-12; }

  constexpr Time& operator+=(Time o) { ps_ += o.ps_; return *this; }
  constexpr Time& operator-=(Time o) { ps_ -= o.ps_; return *this; }
  friend constexpr Time operator+(Time a, Time b) { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ps_ - b.ps_}; }
  friend constexpr Time operator*(Time a, double k) {
    return Time{static_cast<std::int64_t>(static_cast<double>(a.ps_) * k)};
  }
  friend constexpr Time operator*(double k, Time a) { return a * k; }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ps_ / k}; }
  friend constexpr auto operator<=>(Time a, Time b) = default;

 private:
  constexpr explicit Time(std::int64_t v) : ps_{v} {}
  std::int64_t ps_{0};
};

/// Frequency in hertz; converts to/from a per-tick period.
class Frequency {
 public:
  constexpr Frequency() = default;
  [[nodiscard]] static constexpr Frequency mhz(double v) { return Frequency{v * 1e6}; }
  [[nodiscard]] static constexpr Frequency ghz(double v) { return Frequency{v * 1e9}; }

  [[nodiscard]] constexpr double as_hz() const { return hz_; }
  [[nodiscard]] constexpr double as_ghz() const { return hz_ * 1e-9; }
  [[nodiscard]] constexpr Time period() const { return Time::sec(1.0 / hz_); }

  friend constexpr Frequency operator*(Frequency f, double k) { return Frequency{f.hz_ * k}; }
  friend constexpr auto operator<=>(Frequency a, Frequency b) = default;

 private:
  constexpr explicit Frequency(double v) : hz_{v} {}
  double hz_{0.0};
};

/// Temperature in degrees Celsius.  Plain double wrapper; the thermal solver
/// works in Kelvin internally but every interface speaks Celsius, matching
/// the paper's figures.
class Celsius {
 public:
  constexpr Celsius() = default;
  constexpr explicit Celsius(double deg_c) : c_{deg_c} {}
  [[nodiscard]] static constexpr Celsius from_kelvin(double k) { return Celsius{k - 273.15}; }

  [[nodiscard]] constexpr double value() const { return c_; }
  [[nodiscard]] constexpr double as_kelvin() const { return c_ + 273.15; }

  friend constexpr Celsius operator+(Celsius a, double dt) { return Celsius{a.c_ + dt}; }
  friend constexpr Celsius operator-(Celsius a, double dt) { return Celsius{a.c_ - dt}; }
  friend constexpr double operator-(Celsius a, Celsius b) { return a.c_ - b.c_; }
  friend constexpr auto operator<=>(Celsius a, Celsius b) = default;

 private:
  double c_{0.0};
};

/// Power in watts.
class Watts {
 public:
  constexpr Watts() = default;
  constexpr explicit Watts(double w) : w_{w} {}
  [[nodiscard]] constexpr double value() const { return w_; }

  constexpr Watts& operator+=(Watts o) { w_ += o.w_; return *this; }
  friend constexpr Watts operator+(Watts a, Watts b) { return Watts{a.w_ + b.w_}; }
  friend constexpr Watts operator-(Watts a, Watts b) { return Watts{a.w_ - b.w_}; }
  friend constexpr Watts operator*(Watts a, double k) { return Watts{a.w_ * k}; }
  friend constexpr Watts operator*(double k, Watts a) { return Watts{a.w_ * k}; }
  friend constexpr double operator/(Watts a, Watts b) { return a.w_ / b.w_; }
  friend constexpr auto operator<=>(Watts a, Watts b) = default;

 private:
  double w_{0.0};
};

/// Energy in joules.  Energy = Power * Time and Power = Energy / Time are the
/// only cross-domain operations, defined below.
class Joules {
 public:
  constexpr Joules() = default;
  constexpr explicit Joules(double j) : j_{j} {}
  [[nodiscard]] static constexpr Joules pj(double v) { return Joules{v * 1e-12}; }

  [[nodiscard]] constexpr double value() const { return j_; }
  [[nodiscard]] constexpr double as_pj() const { return j_ * 1e12; }

  constexpr Joules& operator+=(Joules o) { j_ += o.j_; return *this; }
  friend constexpr Joules operator+(Joules a, Joules b) { return Joules{a.j_ + b.j_}; }
  friend constexpr Joules operator*(Joules a, double k) { return Joules{a.j_ * k}; }
  friend constexpr auto operator<=>(Joules a, Joules b) = default;

 private:
  double j_{0.0};
};

[[nodiscard]] constexpr Joules operator*(Watts p, Time t) {
  return Joules{p.value() * t.as_sec()};
}
[[nodiscard]] constexpr Joules operator*(Time t, Watts p) { return p * t; }
[[nodiscard]] constexpr Watts operator/(Joules e, Time t) {
  return Watts{e.value() / t.as_sec()};
}

/// Bandwidth in bytes per second.  The paper quotes GB/s as 10^9 bytes/s.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  [[nodiscard]] static constexpr Bandwidth bytes_per_sec(double v) { return Bandwidth{v}; }
  [[nodiscard]] static constexpr Bandwidth gbps(double v) { return Bandwidth{v * 1e9}; }

  [[nodiscard]] constexpr double as_bytes_per_sec() const { return bps_; }
  [[nodiscard]] constexpr double as_gbps() const { return bps_ * 1e-9; }
  [[nodiscard]] constexpr double bits_per_sec() const { return bps_ * 8.0; }

  /// Bytes transferable in an interval.
  [[nodiscard]] constexpr double bytes_in(Time t) const { return bps_ * t.as_sec(); }

  friend constexpr Bandwidth operator+(Bandwidth a, Bandwidth b) { return Bandwidth{a.bps_ + b.bps_}; }
  friend constexpr Bandwidth operator-(Bandwidth a, Bandwidth b) { return Bandwidth{a.bps_ - b.bps_}; }
  friend constexpr Bandwidth operator*(Bandwidth a, double k) { return Bandwidth{a.bps_ * k}; }
  friend constexpr double operator/(Bandwidth a, Bandwidth b) { return a.bps_ / b.bps_; }
  friend constexpr auto operator<=>(Bandwidth a, Bandwidth b) = default;

 private:
  constexpr explicit Bandwidth(double v) : bps_{v} {}
  double bps_{0.0};
};

/// Thermal resistance in degrees Celsius per watt (heat-sink characteristic).
class ThermalResistance {
 public:
  constexpr ThermalResistance() = default;
  constexpr explicit ThermalResistance(double c_per_w) : r_{c_per_w} {}
  [[nodiscard]] constexpr double value() const { return r_; }

  /// Temperature rise produced by a heat flow.
  [[nodiscard]] constexpr double rise(Watts p) const { return r_ * p.value(); }

  friend constexpr auto operator<=>(ThermalResistance a, ThermalResistance b) = default;

 private:
  double r_{0.0};
};

}  // namespace coolpim
