// Source-throttling controller interface (paper Fig. 6 feedback loop).
//
// The GPU runtime / hardware consults the policy at three points:
//   * block launch -- may this CUDA block run the PIM-enabled kernel?
//     (SW-DynT's token-pool granularity)
//   * warp issue -- what fraction of warps may emit PIM instructions?
//     (HW-DynT's PCU granularity)
//   * demand issue -- what fraction of all memory traffic may go out?
//     (BW-Throttle's blanket admission)
// and feeds it thermal-warning messages extracted from HMC response packets.
// Warnings propagate with a mechanism-specific source-throttling delay
// T_throttle, and the HMC temperature itself responds with T_thermal ~ 1 ms
// (paper Fig. 8); the system model applies those delays.  The full-system
// loop additionally hands every policy a per-epoch reading, and a queryable
// throttle level lets benches, tests and observability compare policies
// without knowing their mechanism (token pool, warp count, admitted
// fraction, MPC level...).
//
// Concrete policies register by name in sys/policy_registry.hpp;
// tests/test_policy_contract.cpp pins the invariants every registered policy
// must keep (DESIGN.md section 11):
//
//  * throttle_level() stays in [0, max_throttle_level()] at all times;
//  * consecutive thermal warnings never *decrease* the level, and a stale
//    delayed duplicate (same raise time) never applies a second step;
//  * on_watchdog_engage() degrades the remaining allowance by at least half
//    (or to the policy's saturation level, whichever binds first);
//  * results are bit-identical at any --jobs value (policies draw no RNG).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/units.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace coolpim::control {

/// Host-visible state handed to the policy once per simulation epoch: the
/// *sensed* peak DRAM temperature (thermal delay applied, fault conditioning
/// included when the fault layer is active).  Reactive policies ignore it;
/// predictive policies act on it before any warning fires.
struct Reading {
  Celsius sensed{0.0};
};

class Policy {
 public:
  virtual ~Policy() = default;

  /// Thermal warning received by the host at `now` (already includes the
  /// thermal sensing delay).  Implementations apply their own T_throttle.
  ///
  /// `raised_at` is when the device raised the warning; on an undisturbed
  /// link it equals `now`, but link retries and delivery delays (the fault
  /// layer) can push `now` past the epoch that triggered the warning -- even
  /// out of order.  Implementations must coalesce on the *raise* time, so a
  /// late duplicate of an already-handled excursion is stale and causes no
  /// extra reduction step (see DESIGN.md section 10).
  virtual void on_thermal_warning(Time now, Time raised_at) = 0;

  /// Undisturbed-link convenience: the warning arrives the moment it was
  /// raised (the fault-free system path and most tests).
  void on_thermal_warning(Time now) { on_thermal_warning(now, now); }

  /// Fail-safe degradation (fault::Watchdog): warning feedback has gone
  /// silent while the device runs hot, so take one conservative throttle
  /// step *now*, bypassing warning coalescing.  Default: treat it as a
  /// fresh warning.  Never called on the fault-free path.
  virtual void on_watchdog_engage(Time now) { on_thermal_warning(now, now); }

  /// Per-epoch observation hook, called by the system loop right before
  /// warning delivery.  Default: no-op (purely reactive policy).
  virtual void on_epoch(const Reading& /*reading*/, Time /*now*/) {}

  /// Block launch: may the block run the PIM-enabled kernel?  The runtime
  /// must later call release_block() for every true return.  Default: every
  /// block may (block granularity unused).
  [[nodiscard]] virtual bool acquire_block(Time /*now*/) { return true; }
  virtual void release_block(Time /*now*/) {}

  /// Fraction of warps allowed to emit PIM instructions inside PIM-enabled
  /// blocks (HW-DynT's warp-granular control; 1.0 when unused).
  [[nodiscard]] virtual double pim_warp_fraction(Time /*now*/) const { return 1.0; }

  /// Fraction of the GPU's *total* demand admitted (blanket bandwidth
  /// throttling; 1.0 for source-selective mechanisms).
  [[nodiscard]] virtual double demand_scale(Time /*now*/) const { return 1.0; }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Source-throttling reaction delay of this mechanism.
  [[nodiscard]] virtual Time throttle_delay() const = 0;

  /// Number of throttling adjustments applied so far (0 for static
  /// policies); used to detect feedback-loop convergence.
  [[nodiscard]] virtual std::uint64_t adjustments() const { return 0; }

  /// Current throttle depth: 0 = unthrottled, max_throttle_level() = the
  /// policy's strongest setting.  Units are policy-specific (blocks removed,
  /// warps disabled, admittance millis...); only the ordering is contractual.
  [[nodiscard]] virtual std::uint32_t throttle_level() const = 0;
  [[nodiscard]] virtual std::uint32_t max_throttle_level() const = 0;

  /// Highest level the degrade paths (warnings, watchdog) can actually reach;
  /// policies with an admittance floor saturate short of max_throttle_level().
  [[nodiscard]] virtual std::uint32_t saturation_level() const {
    return max_throttle_level();
  }

  /// Attach a trace sink (category "core" for the paper's controllers,
  /// "control" for the predictive members): policies emit instant events for
  /// every control action -- PTP pool shrinks, warp disables, blanket
  /// admission changes -- and complete-spans for their reaction latencies.
  /// Observation only; never changes throttling decisions.
  void set_trace(obs::Trace trace) { trace_ = trace; }

  /// Attach the counter registry (observation only, like set_trace()).
  void set_counters(obs::CounterRegistry* counters) { counters_ = counters; }

 protected:
  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::control
