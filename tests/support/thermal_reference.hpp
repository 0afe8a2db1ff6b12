// Test-support oracles for thermal::StackModel (docs/PERFORMANCE.md
// section 1, DESIGN.md section 9 item 1).  Linked by the thermal tests and by
// bench/perf_thermal, never by a library under src/.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::thermal {

/// The guarded per-node explicit-Euler sweep that StackModel::step() must
/// match bit for bit.  It compiles its own per-node conductance tables from
/// the StackSpec with per-cell boundary branches, so it shares nothing with
/// the per-layer records the model packs, and each step() call allocates a
/// fresh scratch field: the allocation tests use it as their positive
/// control.
class ReferenceSweep {
 public:
  explicit ReferenceSweep(const StackSpec& spec);

  /// Advance `model` (built from the same spec) by `dt` with its current
  /// power, over model.substeps_for(dt) substeps; throws where step() does.
  void step(StackModel& model, Time dt) const;

  /// The explicit stable step derived from these tables; a StackModel of the
  /// same spec must report the same stable_step().
  [[nodiscard]] Time stable_step() const { return stable_dt_; }

 private:
  StackSpec spec_;
  std::vector<double> g_east_, g_west_, g_north_, g_south_, g_up_, g_down_;
  std::vector<double> g_sink_, g_board_, cap_;
  double g_sink_ambient_{0.0};
  Time stable_dt_{Time::zero()};
};

/// Heat leaving the stack through the sink and the board, watts, with both
/// conductances derived from the model's StackSpec.  At steady state it
/// equals the node power plus the co-heater watts.
[[nodiscard]] double heat_out(const StackModel& model);

}  // namespace coolpim::thermal
