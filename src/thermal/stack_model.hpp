// Compact transient thermal model of a 3D die stack (3D-ICE stand-in).
//
// The stack is discretized into nx*ny cells per die layer.  Heat flows
// laterally within a layer (silicon conduction), vertically between layers
// (through half-die silicon plus a bond/underfill interface), from the top
// layer through the TIM into a lumped heat-sink node, and from the sink to
// ambient through the sink's rated thermal resistance.  The bottom (logic)
// layer leaks weakly into the package substrate/board.
//
//            ambient
//               |  R_sink
//          [sink node]  <- optional co-heater (e.g. FPGA sharing the sink)
//               |  TIM (per cell)
//        [layer N-1]  top DRAM die
//               |   bond interfaces
//             ...
//        [layer 1]    bottom DRAM die
//               |
//        [layer 0]    logic die
//               |  R_board (weak)
//            ambient
//
// Solvers: steady state via Gauss-Seidel/SOR; transient via explicit Euler
// with an automatically chosen stable sub-step (step), or via the
// unconditionally stable ADI line solver for tall stacks (step_adi).
//
// Hot-path layout (docs/PERFORMANCE.md section 1): cell geometry and
// material are uniform within a layer, so the network is stored the way it
// is built -- one record of heat capacity and link conductances per layer,
// the board and sink couplings as scalars -- plus a single node-sized table,
// the east link of every node (zero at row ends) after one layer of leading
// zeros, read at i and i-1 for a node's east and west links.  The
// temperature field is stored with one layer of ghost cells on either end so
// every neighbour read is in-bounds.  The kernels walk each layer in row
// bands (first, interior and last row) with the band's north/south links as
// scalars; a boundary term multiplies a ghost temperature by a zero
// conductance, which contributes an exact (+/-)0.0, so the sweep is
// branch-free and bit-identical to the guarded per-node oracle in
// tests/support/thermal_reference.hpp.  Per-layer peak/mean reductions are
// cached and recomputed in a single pass over the field when the
// temperatures change.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "thermal/floorplan.hpp"

namespace coolpim::thermal {

/// One die layer of the stack.
struct LayerSpec {
  std::string name;
  double thickness_m{50e-6};
  double conductivity{120.0};            // W/(m*K)
  double volumetric_heat_capacity{1.63e6};  // J/(m^3*K)
  /// Interface (bond/underfill) resistance between this layer and the one
  /// above it, m^2*K/W.  Ignored for the top layer (TIM is separate).
  double interface_r_above{1.0e-5};
};

/// Full stack description.  Layer 0 is the bottom (logic) die.
struct StackSpec {
  Floorplan floorplan{};
  std::vector<LayerSpec> layers;
  double tim_r{1.25e-5};                    // m^2*K/W, top die -> sink
  ThermalResistance sink_r{0.5};            // sink -> ambient, C/W
  double sink_heat_capacity{80.0};          // J/K (lumped sink mass)
  double board_r{20.0};                     // C/W bulk, bottom die -> ambient
  Celsius ambient{25.0};
  /// Extra steady heat dumped directly into the sink node, modelling a
  /// co-packaged component sharing the heat sink (the AC-510's FPGA).
  double co_heater_watts{0.0};

  void validate() const;
};

/// HBM-class stack: `dram_dies` thin DRAM dies over one logic die on an
/// nx x ny grid.  The 16-high variant with a fine grid is the multi-stack
/// geometry of the HBM thermal-vulnerability literature; its explicit-Euler
/// stable dt collapses with cell area, which is what StackModel::step_adi
/// exists for (docs/PERFORMANCE.md section 7).
[[nodiscard]] StackSpec hbm_stack_spec(std::size_t dram_dies, std::size_t grid_nx,
                                       std::size_t grid_ny);

/// Ceiling on the substep count a single step()/step_adi() call may take.
/// Tall stacks on fine grids shrink the stable dt quadratically with cell
/// area; silently looping tens of millions of substeps behind one call is a
/// hang, not a simulation.  The integrators throw ConfigError past this
/// bound; the explicit one names step_adi() as the way out.
inline constexpr std::size_t kMaxTransientSubsteps = std::size_t{1} << 22;

/// step_adi() substep length as a multiple of the explicit stable dt.  The
/// ADI pass is unconditionally stable, so this trades splitting error against
/// work; 32 keeps a 16-high HBM stack within the documented tolerance of a
/// tight-dt explicit reference (DESIGN.md section 13).
inline constexpr double kAdiDtFactor = 32.0;

/// Initial field for an SOR steady-state solve (StackModel::solve_steady and
/// the HmcThermalModel::solve_steady(SteadyStart) reference overload).
///  - kWarm (default) iterates from the current temperature field unchanged.
///  - kCold resets the whole stack to ambient first, reproducing a solve on
///    a freshly constructed model.
/// Both starts converge to the same solution within the solver tolerance.
/// The run path does not iterate at all: HmcThermalModel::solve_steady()
/// superposes cached unit responses (docs/PERFORMANCE.md section 2).
enum class SteadyStart { kWarm, kCold };

class StackModel {
 public:
  explicit StackModel(StackSpec spec);

  [[nodiscard]] const StackSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t layer_count() const { return spec_.layers.size(); }
  [[nodiscard]] std::size_t cells_per_layer() const { return spec_.floorplan.grid.cells(); }
  [[nodiscard]] std::size_t node_count() const { return n_nodes_; }

  /// Replace the power map of one layer (watts per cell).
  void set_layer_power(std::size_t layer, const PowerMap& power);
  /// The same from a row of cells_per_layer() watts; allocates nothing.
  void set_layer_power(std::size_t layer, std::span<const double> watts);
  /// Power per node in watts, same order as temperatures_k().
  [[nodiscard]] std::span<const double> power_w() const { return power_w_; }

  /// Solve for the steady-state temperature field with the current power.
  /// Returns the number of solver iterations used.
  std::size_t solve_steady(double tolerance_k = 1e-4, std::size_t max_iters = 200000,
                           SteadyStart start = SteadyStart::kWarm);

  /// Advance the transient solution by `dt` with the current power.
  /// Branch-free row-band sweep; no heap allocation after construction.
  void step(Time dt);

  /// Advance by `dt` with the alternating-direction implicit kernel: per
  /// substep, Lie-split backward-Euler line solves (Thomas algorithm) along
  /// x, then y, then z -- the z pass carries the power, the board leak and
  /// the TIM coupling against the lagged sink -- then an implicit sink
  /// update.  Unconditionally stable: substeps = ceil(dt / (kAdiDtFactor *
  /// stable_step())), at least 1, and ConfigError past kMaxTransientSubsteps.
  /// Not bit-identical to step(); tolerance-bounded against a tight-dt
  /// explicit run (DESIGN.md section 13).  No heap allocation: the line
  /// factorizations are sized at construction and rebuilt in place when the
  /// substep length changes.
  void step_adi(Time dt);

  /// Explicit-Euler substeps step() performs for a given dt.  Throws
  /// ConfigError when dt is non-positive or the count would exceed
  /// kMaxTransientSubsteps (the tall-stack/fine-grid collapse case), never
  /// silently looping.
  [[nodiscard]] std::size_t substeps_for(Time dt) const;

  /// Reset all temperatures to ambient.
  void reset_to_ambient();

  /// Overwrite the whole temperature state in one call: every node (Kelvin,
  /// node order = layer * cells_per_layer() + cell) and the sink node.  This
  /// is how a steady field computed outside the SOR solver is installed.
  void set_temperatures(std::span<const double> node_k, double sink_k);
  /// The node temperatures in Kelvin, same order as set_temperatures().
  [[nodiscard]] std::span<const double> temperatures_k() const { return {field(), n_nodes_}; }

  [[nodiscard]] Celsius cell_temp(std::size_t layer, std::size_t cell) const;
  [[nodiscard]] Celsius layer_peak(std::size_t layer) const;
  [[nodiscard]] Celsius layer_mean(std::size_t layer) const;
  /// Peak over layers [first, last] inclusive.
  [[nodiscard]] Celsius peak_over_layers(std::size_t first, std::size_t last) const;
  [[nodiscard]] Celsius sink_temp() const;
  /// The sink node temperature in Kelvin, exactly as the integrators hold it.
  [[nodiscard]] double sink_temp_k() const { return sink_temp_k_; }

  /// Package surface temperature estimate: what a thermal camera aimed at
  /// the package lid would read -- between the top-die and sink temperature.
  [[nodiscard]] Celsius surface_temp() const;

  /// Copy of one layer's temperature field in Celsius (row-major).
  [[nodiscard]] std::vector<double> layer_field(std::size_t layer) const;

  /// Largest stable explicit-Euler step for the current conductances.
  [[nodiscard]] Time stable_step() const { return stable_dt_; }

 private:
  /// One die layer of the compiled RC network.  Cell geometry and material
  /// are uniform within a layer, so each kind of link has one conductance
  /// (W/K).  A link the stack does not have is zero: g_x on a one-column
  /// grid, g_y on a one-row grid, g_up on the top layer.
  struct Layer {
    double cap;   // heat capacity per cell, J/K
    double g_x;   // east-west link
    double g_y;   // north-south link
    double g_up;  // link to the cell one layer up
  };

  /// Per-layer reductions, computed lazily in one pass over the field.
  struct LayerStat {
    double peak_k;
    double mean_k;
  };

  [[nodiscard]] std::size_t node(std::size_t layer, std::size_t cell) const {
    return layer * cells_per_layer() + cell;
  }
  /// Temperature field (Kelvin), skipping the leading ghost block.
  [[nodiscard]] double* field() { return temp_.data() + static_cast<std::ptrdiff_t>(n_cells_); }
  [[nodiscard]] const double* field() const {
    return temp_.data() + static_cast<std::ptrdiff_t>(n_cells_);
  }
  [[nodiscard]] const std::vector<LayerStat>& stats() const;
  void mark_temps_changed() { stats_dirty_ = true; }
  /// Calls visit(i, stencil) for every node i in node order -- the
  /// Gauss-Seidel order of solve_steady() -- with its heat capacity and the
  /// conductances incident on it.
  template <typename Visit>
  void for_each_node(Visit&& visit) const;
  /// Rebuild the step_adi() line factorizations for substep length h, in
  /// place (no allocation); a no-op when the plan already matches h.
  void refactor_adi(double h);

  StackSpec spec_;
  std::size_t n_cells_{0};
  std::size_t n_nodes_{0};  // layer cells; sink node handled separately

  // Temperatures in Kelvin, ghost-padded: [n_cells ghosts][n_nodes][n_cells
  // ghosts].  Ghost entries hold ambient, are never written, and are only
  // ever multiplied by zero conductances.  `scratch_` has the same shape: the
  // persistent double-buffer partner the explicit sweep swaps with, and the
  // Thomas forward-sweep store of step_adi().
  std::vector<double> temp_;
  std::vector<double> scratch_;
  double sink_temp_k_{0.0};

  // Power per node (watts).
  std::vector<double> power_w_;

  // The compiled RC network.  g_east_ holds n_cells leading zeros and then
  // every node's east link, zero at row ends, so g_east_[n_cells + i - 1] is
  // node i's west link.
  std::vector<Layer> layers_;
  std::vector<double> g_east_;
  double g_board_{0.0};         // each bottom-layer cell -> ambient
  double g_sink_{0.0};          // each top-layer cell -> sink node
  double g_sink_ambient_{0.0};  // sink node -> ambient
  double sink_g_total_{0.0};    // every conductance incident on the sink node
  Time stable_dt_{Time::zero()};

  // step_adi() factorizations for the current substep length: per-layer
  // Thomas coefficients along x and y, the column factorization along z,
  // per-layer cap/h and up-links, and the sink-update terms.
  // Cell geometry and material are uniform within a layer, so one line
  // factorization per (layer, direction) covers every row and column.
  struct AdiPlan {
    double h{0.0};                    // substep the plan was built for; 0 = unbuilt
    std::vector<double> cp_x, inv_x;  // [layer][x]
    std::vector<double> cp_y, inv_y;  // [layer][y]
    std::vector<double> cp_z, inv_z;  // [layer]
    std::vector<double> rc;           // [layer] cap/h
    std::vector<double> gu;           // [layer] layer -> layer+1 link (0 at top)
    double sink_rc{0.0};
    double inv_sink_den{0.0};
  };
  AdiPlan adi_;

  mutable std::vector<LayerStat> stats_;
  mutable bool stats_dirty_{true};
};

}  // namespace coolpim::thermal
