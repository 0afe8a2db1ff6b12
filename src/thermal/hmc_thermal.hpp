// Calibrated thermal model of an HMC cube (HMC 1.1 and HMC 2.0 variants).
//
// Wires the generic StackModel to HMC floorplans and to the power model's
// PowerBreakdown: logic-die background power goes to the die edge (SerDes
// PHYs), logic dynamic power and PIM FU power concentrate at vault centers
// (vault controllers + FUs -- the paper's Fig. 3 hotspot pattern), and DRAM
// power spreads uniformly over the eight DRAM dies.
//
// Free parameters (interface resistance, TIM) are fixed by the calibration
// anchors in DESIGN.md section 6; tests/thermal assert them.
//
// Every power source heats one fixed spatial pattern and the RC network is
// linear in power, so the steady field is ambient plus each source's watts
// times its pattern's unit response.  solve_steady() evaluates that sum from
// responses cached process-wide (docs/PERFORMANCE.md section 2).
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::thermal {

struct HmcThermalConfig {
  std::size_t dram_dies{8};
  Floorplan floorplan{};                 // defaults: 68 mm^2, 8x4 vaults
  power::CoolingSolution cooling{power::cooling(power::CoolingType::kCommodityServer)};
  Celsius ambient{25.0};
  /// Heat from a co-packaged component sharing the heat sink (the AC-510
  /// module's FPGA for the HMC 1.1 prototype experiments).
  double co_heater_watts{0.0};
  /// Inter-die bond/underfill interface resistance, m^2*K/W (calibrated).
  double interface_r{4.5e-6};
  /// TIM resistance top die -> sink, m^2*K/W (calibrated).
  double tim_r{5.0e-6};
  /// Transient-response calibration: scales the die heat capacity so the
  /// stack's thermal time constant matches the ~1 ms response the paper's
  /// KitFox/3D-ICE setup exhibits (Fig. 8, T_thermal).  Physically this
  /// corresponds to tracking only the dies' active regions; steady-state
  /// results are unaffected.
  double heat_capacity_scale{0.045};
  /// Heat-sink node capacitance, J/K.  3D-ICE-style boundary condition: the
  /// sink is modelled as a convective boundary, not a finned thermal mass,
  /// so the whole stack equilibrates on the millisecond scale the paper's
  /// feedback loop (Fig. 8) is built around.
  double sink_heat_capacity{0.006};
};

/// HMC 2.0 cube: 8 DRAM dies over 1 logic die, 32 vaults.
[[nodiscard]] HmcThermalConfig hmc20_thermal_config(power::CoolingType cooling);

/// HMC 1.1 cube on the AC-510 module: 4 DRAM dies, 16 vaults, FPGA sharing
/// the module heat sink.
[[nodiscard]] HmcThermalConfig hmc11_thermal_config(power::CoolingType cooling,
                                                    double fpga_watts = 20.0);

/// Steady temperature rise per watt of one spatial power pattern, for every
/// stack node (StackModel node order) and for the sink node, in K/W.
struct UnitResponse {
  std::vector<double> node_k_per_w;
  double sink_k_per_w{0.0};
  std::size_t sor_iterations{0};  // SOR iterations the response took
};

/// The distinct unit responses HmcThermalModel::solve_steady() superposes for
/// `cfg`: uniform logic background, vault centres (logic dynamic and FU
/// power share the pattern), uniform DRAM over every DRAM die, and the sink
/// co-heater when co_heater_watts > 0.  Solved by SOR from zero rise to
/// 1e-9 K/W, without reading or filling the process-wide cache, so benches
/// can time the one-time build.
[[nodiscard]] std::vector<UnitResponse> solve_unit_responses(const HmcThermalConfig& cfg);

namespace detail {

/// apply_power()'s working set, built once so painting a power layout onto
/// the stack allocates nothing: the logic and DRAM layer rows, one row for
/// the pattern being built, and every vault's center cell.
struct LayoutRows {
  explicit LayoutRows(const Floorplan& fp);

  std::vector<double> logic_w;
  std::vector<double> dram_w;
  std::vector<double> pattern_w;
  std::vector<std::size_t> centre_cells;
};

}  // namespace detail

class HmcThermalModel {
 public:
  explicit HmcThermalModel(HmcThermalConfig cfg);

  /// Distribute a power breakdown onto the stack's layers.  Allocates
  /// nothing: the rows it paints are built at construction.
  void apply_power(const power::PowerBreakdown& power);

  /// Steady state of the breakdown last passed to apply_power(), in closed
  /// form: ambient plus each power source's watts times its pattern's unit
  /// response (solve_unit_responses).  The responses are solved once per
  /// distinct stack geometry and pattern, on the first call that needs them,
  /// and kept in a process-wide cache; after that a solve is a few axpy
  /// passes over the nodes and allocates nothing.  Counts one
  /// thermal/steady_solves and no thermal/steady_iterations: the one-time
  /// response solves belong to no run (docs/OBSERVABILITY.md).
  void solve_steady();

  /// Reference steady solve: SOR over the stack from `start` to 1e-4 K with
  /// the applied power.  Returns the iteration count, which it also adds to
  /// thermal/steady_iterations.  Tests pin solve_steady() against it.
  std::size_t solve_steady(SteadyStart start);

  /// Advance the transient solution.
  void step(Time dt);

  /// Reset the whole stack to ambient.
  void reset();

  [[nodiscard]] Celsius peak_dram() const;
  [[nodiscard]] Celsius peak_logic() const;
  [[nodiscard]] Celsius surface() const { return stack_.surface_temp(); }
  /// Junction (die) estimate from a surface reading using the paper's rule of
  /// thumb: 5-10 C above surface per ~20 W dissipated.
  [[nodiscard]] static Celsius estimate_die_from_surface(Celsius surface, Watts power);

  [[nodiscard]] const StackModel& stack() const { return stack_; }
  /// Mutable stack access for benches/tests that drive the solver kernels
  /// directly (e.g. bench/perf_thermal.cpp timing step() against the
  /// reference sweep).
  [[nodiscard]] StackModel& stack() { return stack_; }
  [[nodiscard]] const HmcThermalConfig& config() const { return cfg_; }
  /// Logic-layer temperature field (for heat maps, paper Fig. 3).
  [[nodiscard]] std::vector<double> logic_heatmap() const { return stack_.layer_field(0); }

  /// Attach observability (category "thermal"): a complete-span per step()
  /// with peak temperatures, peak_dram_c/peak_logic_c counter tracks, and a
  /// `warning_crossing` instant (with per-die temperatures) whenever the
  /// peak DRAM temperature crosses `warn_limit`.  step() has no absolute-time
  /// parameter, so events are stamped with an internal clock the driver
  /// re-syncs via sync_trace_clock() each epoch.  Recording is read-only;
  /// the thermal solution is unaffected.
  void set_observer(obs::Trace trace, obs::CounterRegistry* counters, Celsius warn_limit) {
    trace_ = trace;
    counters_ = counters;
    warn_limit_ = warn_limit;
  }
  void sync_trace_clock(Time now) { clock_ = now; }

 private:
  void count_steady_solve(std::size_t sor_iterations);

  HmcThermalConfig cfg_;
  StackModel stack_;
  detail::LayoutRows rows_;

  // Superposition state.  power_ is the last applied breakdown (the
  // coefficients).  The responses are looked up on the first solve_steady();
  // source_response_ maps each power source to its entry in responses_
  // (kNoResponse for an absent co-heater).  steady_k_ is scratch.
  static constexpr std::size_t kNoResponse = static_cast<std::size_t>(-1);
  power::PowerBreakdown power_{};
  std::vector<const UnitResponse*> responses_;
  std::vector<std::size_t> source_response_;
  std::vector<double> steady_k_;

  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
  Celsius warn_limit_{85.0};
  Time clock_{Time::zero()};
  bool above_limit_{false};
};

}  // namespace coolpim::thermal
