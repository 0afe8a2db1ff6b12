#include "thermal/stack_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/target_clones.hpp"

namespace coolpim::thermal {

void StackSpec::validate() const {
  floorplan.validate();
  COOLPIM_REQUIRE(!layers.empty(), "stack needs at least one layer");
  COOLPIM_REQUIRE(tim_r > 0, "TIM resistance must be positive");
  COOLPIM_REQUIRE(sink_r.value() > 0, "sink resistance must be positive");
  COOLPIM_REQUIRE(board_r > 0, "board resistance must be positive");
  COOLPIM_REQUIRE(sink_heat_capacity > 0, "sink heat capacity must be positive");
  for (const auto& l : layers) {
    COOLPIM_REQUIRE(l.thickness_m > 0 && l.conductivity > 0 && l.volumetric_heat_capacity > 0,
                    "layer properties must be positive: " + l.name);
    COOLPIM_REQUIRE(l.interface_r_above > 0, "interface resistance must be positive: " + l.name);
  }
}

StackSpec hbm_stack_spec(std::size_t dram_dies, std::size_t grid_nx, std::size_t grid_ny) {
  COOLPIM_REQUIRE(dram_dies >= 1, "HBM stack needs at least one DRAM die");
  StackSpec spec;
  spec.floorplan.die_width_m = 11.0e-3;   // HBM-class ~92 mm^2 footprint
  spec.floorplan.die_height_m = 8.4e-3;
  spec.floorplan.vaults_x = 8;
  spec.floorplan.vaults_y = 4;
  spec.floorplan.grid.nx = grid_nx;
  spec.floorplan.grid.ny = grid_ny;

  LayerSpec logic;
  logic.name = "logic";
  logic.thickness_m = 100e-6;
  logic.conductivity = 120.0;
  logic.interface_r_above = 4.5e-6;
  spec.layers.push_back(logic);
  for (std::size_t d = 0; d < dram_dies; ++d) {
    LayerSpec dram;
    dram.name = "dram" + std::to_string(d);
    dram.thickness_m = 50e-6;  // thinned core dies, tall-stack bonding
    dram.conductivity = 120.0;
    dram.interface_r_above = 4.5e-6;
    spec.layers.push_back(dram);
  }
  spec.tim_r = 5.0e-6;
  spec.sink_r = ThermalResistance{0.7};
  spec.sink_heat_capacity = 2.0;
  spec.board_r = 20.0;
  return spec;
}

namespace {

/// Cells [begin, end) of a layer whose north and south links are uniform.
struct RowBand {
  std::ptrdiff_t begin, end;
  double g_n, g_s;
};

/// A layer's row bands in cell order: the first row (no south link), the
/// interior rows and the last row (no north link).  A one-row grid is one
/// band followed by two empty ones; two rows leave the interior band empty.
std::array<RowBand, 3> row_bands(std::ptrdiff_t nx, std::ptrdiff_t nc, double g_y) {
  if (nx == nc) return {{{0, nc, 0.0, 0.0}, {nc, nc, 0.0, 0.0}, {nc, nc, 0.0, 0.0}}};
  return {{{0, nx, g_y, 0.0}, {nx, nc - nx, g_y, g_y}, {nc - nx, nc, 0.0, g_y}}};
}

/// One node's heat capacity and incident conductances, zero where a link
/// does not exist.
struct NodeStencil {
  double cap, g_e, g_w, g_n, g_s, g_up, g_down, g_sink, g_board;

  /// Sum of the incident conductances, always in this order:
  /// solve_steady() divides by it and stable_step() is derived from it.
  [[nodiscard]] double diag() const {
    return g_up + g_sink + g_board + g_e + g_w + g_n + g_s + g_down;
  }
};

}  // namespace

template <typename Visit>
void StackModel::for_each_node(Visit&& visit) const {
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.nx);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const double* ge = g_east_.data() + nc;  // ge[i-1] is the west link
  const std::size_t n_layers = layers_.size();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const Layer& layer = layers_[l];
    const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(l) * nc;
    NodeStencil s{};
    s.cap = layer.cap;
    s.g_up = layer.g_up;
    s.g_down = l > 0 ? layers_[l - 1].g_up : 0.0;
    s.g_sink = l + 1 == n_layers ? g_sink_ : 0.0;
    s.g_board = l == 0 ? g_board_ : 0.0;
    for (const RowBand& band : row_bands(nx, nc, layer.g_y)) {
      s.g_n = band.g_n;
      s.g_s = band.g_s;
      for (std::ptrdiff_t i = base + band.begin; i < base + band.end; ++i) {
        s.g_e = ge[i];
        s.g_w = ge[i - 1];
        visit(i, s);
      }
    }
  }
}

StackModel::StackModel(StackSpec spec) : spec_{std::move(spec)} {
  spec_.validate();
  const Floorplan& fp = spec_.floorplan;
  const std::size_t nx = fp.grid.nx;
  const std::size_t n_layers = spec_.layers.size();
  n_cells_ = fp.grid.cells();
  n_nodes_ = n_cells_ * n_layers;
  // Ghost-padded field: one layer-sized block of ambient cells before and
  // after the live nodes, so neighbour reads at +/-1, +/-nx and +/-n_cells
  // stay in-bounds at every boundary.
  temp_.assign(n_nodes_ + 2 * n_cells_, spec_.ambient.as_kelvin());
  scratch_.assign(n_nodes_ + 2 * n_cells_, spec_.ambient.as_kelvin());
  sink_temp_k_ = spec_.ambient.as_kelvin();
  power_w_.assign(n_nodes_, 0.0);
  stats_.resize(n_layers);

  // The RC network, one record per layer.
  const double cw = fp.cell_width_m();
  const double ch = fp.cell_height_m();
  const double area = fp.cell_area_m2();
  layers_.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const LayerSpec& ls = spec_.layers[l];
    const double t = ls.thickness_m;
    const double k = ls.conductivity;
    Layer& layer = layers_[l];
    layer.cap = ls.volumetric_heat_capacity * area * t;
    // Lateral conduction through the die cross-section.
    layer.g_x = nx > 1 ? k * t * ch / cw : 0.0;
    layer.g_y = fp.grid.ny > 1 ? k * t * cw / ch : 0.0;
    if (l + 1 < n_layers) {
      // Vertical conduction: half-die + interface + half-die above.
      const LayerSpec& above = spec_.layers[l + 1];
      const double r = t / (2.0 * k) + ls.interface_r_above +
                       above.thickness_m / (2.0 * above.conductivity);
      layer.g_up = area / r;
    } else {
      // The top layer couples to the lumped sink node through half-die + TIM.
      layer.g_up = 0.0;
      g_sink_ = area / (t / (2.0 * k) + spec_.tim_r);
    }
  }
  // The bottom layer leaks into the board: a bulk resistance shared by all
  // bottom cells.
  g_board_ = 1.0 / (spec_.board_r * static_cast<double>(n_cells_));
  g_sink_ambient_ = 1.0 / spec_.sink_r.value();
  sink_g_total_ = g_sink_ambient_;
  for (std::size_t c = 0; c < n_cells_; ++c) sink_g_total_ += g_sink_;

  g_east_.assign(n_cells_ + n_nodes_, 0.0);
  for (std::size_t i = 0; i < n_nodes_; ++i) {
    if (i % nx + 1 < nx) g_east_[n_cells_ + i] = layers_[i / n_cells_].g_x;
  }

  // Stable explicit-Euler step: dt < min_i C_i / G_i (with safety margin).
  double dt_min = spec_.sink_heat_capacity / sink_g_total_;
  for_each_node([&](std::ptrdiff_t, const NodeStencil& s) {
    dt_min = std::min(dt_min, s.cap / s.diag());
  });
  stable_dt_ = Time::sec(0.5 * dt_min);
  COOLPIM_ASSERT(stable_dt_ > Time::zero());

  adi_.cp_x.assign(n_layers * nx, 0.0);
  adi_.inv_x.assign(n_layers * nx, 0.0);
  adi_.cp_y.assign(n_layers * fp.grid.ny, 0.0);
  adi_.inv_y.assign(n_layers * fp.grid.ny, 0.0);
  adi_.cp_z.assign(n_layers, 0.0);
  adi_.inv_z.assign(n_layers, 0.0);
  adi_.rc.assign(n_layers, 0.0);
  adi_.gu.assign(n_layers, 0.0);
}

void StackModel::set_layer_power(std::size_t layer, const PowerMap& power) {
  set_layer_power(layer, power.cells());
}

void StackModel::set_layer_power(std::size_t layer, std::span<const double> watts) {
  COOLPIM_REQUIRE(layer < spec_.layers.size(), "layer index out of range");
  COOLPIM_ASSERT(watts.size() == n_cells_);
  std::copy(watts.begin(), watts.end(),
            power_w_.begin() + static_cast<std::ptrdiff_t>(node(layer, 0)));
}

std::size_t StackModel::solve_steady(double tolerance_k, std::size_t max_iters,
                                     SteadyStart start) {
  if (start == SteadyStart::kCold) reset_to_ambient();

  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.nx);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const std::size_t n_layers = spec_.layers.size();
  const double ambient_k = spec_.ambient.as_kelvin();
  const double omega = 1.85;  // SOR over-relaxation
  double* T = field();

  std::size_t iter = 0;
  for (; iter < max_iters; ++iter) {
    double max_delta = 0.0;

    // Sink node first (Gauss-Seidel: uses the freshest neighbour values).
    {
      double num = g_sink_ambient_ * ambient_k + spec_.co_heater_watts;
      const double* top = T + static_cast<std::ptrdiff_t>((n_layers - 1) * n_cells_);
      for (std::ptrdiff_t c = 0; c < nc; ++c) {
        num += g_sink_ * top[c];
      }
      const double t_new = num / sink_g_total_;
      max_delta = std::max(max_delta, std::abs(t_new - sink_temp_k_));
      sink_temp_k_ = t_new;
    }

    // Branch-free SOR sweep: boundary directions carry a zero conductance,
    // so their ghost reads contribute an exact +0.0 (same bits as a guarded
    // loop that skipped them).
    for_each_node([&](std::ptrdiff_t i, const NodeStencil& s) {
      const double* Ti = T + i;
      double num = power_w_[static_cast<std::size_t>(i)];
      num += s.g_e * Ti[1];
      num += s.g_w * Ti[-1];
      num += s.g_n * Ti[nx];
      num += s.g_s * Ti[-nx];
      num += s.g_up * Ti[nc];
      num += s.g_down * Ti[-nc];
      num += s.g_sink * sink_temp_k_;
      num += s.g_board * ambient_k;

      const double t_old = *Ti;
      const double t_gs = num / s.diag();
      const double t_new = t_old + omega * (t_gs - t_old);
      max_delta = std::max(max_delta, std::abs(t_new - t_old));
      T[i] = t_new;
    });

    if (max_delta < tolerance_k) break;
  }
  COOLPIM_ASSERT_MSG(iter < max_iters, "steady-state solve did not converge");
  mark_temps_changed();
  return iter + 1;
}

std::size_t StackModel::substeps_for(Time dt) const {
  COOLPIM_REQUIRE(dt > Time::zero(), "transient step must be positive");
  const double n = std::ceil(dt.as_sec() / stable_dt_.as_sec());
  // Fail loudly on the tall-stack/fine-grid collapse: an explicit step that
  // needs millions of substeps is a hang masquerading as progress.  The ADI
  // kernel is unconditionally stable and exists for exactly this regime.
  COOLPIM_REQUIRE(n <= static_cast<double>(kMaxTransientSubsteps),
                  "explicit transient step needs " + std::to_string(n) +
                      " substeps (> kMaxTransientSubsteps); stable dt has collapsed -- "
                      "shorten the step or use the ADI kernel (StackModel::step_adi)");
  return static_cast<std::size_t>(n);
}

namespace {

// The stencil kernels below run as runtime-dispatched AVX2 clones
// (common/target_clones.hpp): four double lanes, same IEEE mul/add/div
// sequence per lane, so results are bit-identical to the default clone.

/// One explicit-Euler substep over one row band of a layer below the top
/// one: a pure elementwise map with no reduction, written as a free function
/// with __restrict parameters so GCC's dependence analysis vectorizes it (the
/// qualifier is only reliably honoured on function parameters).  The sink
/// term is omitted entirely: no such link exists below the top layer, and
/// skipping a `flow += 0 * (...)` is bit-exact because `flow` is never -0.0
/// at that point (power is non-negative and a round-to-nearest sum of
/// cancelling non-zeros yields +0.0), so adding the zero product could not
/// have changed it.
///
/// Vertical, board, capacitance and north/south conductances are uniform
/// over a whole row band by construction (uniform cell geometry, per-layer
/// material; the north/south links only vanish on the first/last row), so
/// they arrive as broadcast scalars.  Only the east table remains an array:
/// its row-edge zeros sit mid-span, and reading it at i and i-1 covers the
/// west link too.
COOLPIM_STENCIL_CLONES
void substep_span(const double* __restrict T, double* __restrict N,
                  const double* __restrict pw, const double* __restrict ge,
                  std::ptrdiff_t begin, std::ptrdiff_t end, std::ptrdiff_t nx,
                  std::ptrdiff_t nc, double g_n, double g_s, double g_up, double g_down,
                  double g_board, double cap, double h, double ambient_k) {
  for (std::ptrdiff_t i = begin; i < end; ++i) {
    const double t = T[i];
    double flow = pw[i];
    flow += ge[i] * (T[i + 1] - t);
    flow += ge[i - 1] * (T[i - 1] - t);
    flow += g_n * (T[i + nx] - t);
    flow += g_s * (T[i - nx] - t);
    flow += g_up * (T[i + nc] - t);
    flow += g_down * (T[i - nc] - t);
    flow += g_board * (ambient_k - t);
    N[i] = t + h * flow / cap;
  }
}

/// Top-layer substep over one row band: the same stencil without an up-link,
/// plus the TIM coupling into the lumped sink node.  Leaving out the absent
/// up-link's zero term cannot change N[i]: adding a zero changes at most the
/// sign of a zero flow, and t + (+/-0.0) == t.  The scalar sink_flow
/// reduction confines the only vectorization-hostile statement of the sweep
/// to these n_cells nodes.  Returns the accumulated heat flow into the sink.
COOLPIM_STENCIL_CLONES
double substep_top(const double* __restrict T, double* __restrict N,
                   const double* __restrict pw, const double* __restrict ge,
                   std::ptrdiff_t begin, std::ptrdiff_t end, std::ptrdiff_t nx,
                   std::ptrdiff_t nc, double g_n, double g_s, double g_down, double g_sink,
                   double g_board, double cap, double h, double ambient_k, double sink_t,
                   double sink_flow) {
  for (std::ptrdiff_t i = begin; i < end; ++i) {
    const double t = T[i];
    double flow = pw[i];
    flow += ge[i] * (T[i + 1] - t);
    flow += ge[i - 1] * (T[i - 1] - t);
    flow += g_n * (T[i + nx] - t);
    flow += g_s * (T[i - nx] - t);
    flow += g_down * (T[i - nc] - t);
    const double f = g_sink * (sink_t - t);
    flow += f;
    sink_flow -= f;
    flow += g_board * (ambient_k - t);
    N[i] = t + h * flow / cap;
  }
  return sink_flow;
}

/// Thomas solve of `lines` independent uniform implicit diffusion lines of
/// length m -- the x and y passes of step_adi():
///   (C/h) T* - g * (neighbour coupling) = (C/h) T^n.
/// Element k of line j sits at k*stride + j*spacing.  The inner loops run
/// over the lines, so the y pass (lines = the contiguous x index, spacing 1)
/// vectorizes and the x pass (lines = rows) overlaps independent
/// recurrences; per element the arithmetic is the same either way.  cp/inv
/// are the precomputed elimination coefficients and S is the forward-sweep
/// store at the same offsets as T.
COOLPIM_STENCIL_CLONES
void thomas_lines(double* __restrict T, double* __restrict S, const double* __restrict cp,
                  const double* __restrict inv, double g, double rc, std::ptrdiff_t m,
                  std::ptrdiff_t stride, std::ptrdiff_t lines, std::ptrdiff_t spacing) {
  const double i0 = inv[0];
  for (std::ptrdiff_t j = 0; j < lines; ++j) S[j * spacing] = rc * T[j * spacing] * i0;
  for (std::ptrdiff_t k = 1; k < m; ++k) {
    const double* Tk = T + k * stride;
    const double* Sp = S + (k - 1) * stride;
    double* Sk = S + k * stride;
    const double ik = inv[k];
    for (std::ptrdiff_t j = 0; j < lines; ++j) {
      Sk[j * spacing] = (rc * Tk[j * spacing] + g * Sp[j * spacing]) * ik;
    }
  }
  {
    double* Tl = T + (m - 1) * stride;
    const double* Sl = S + (m - 1) * stride;
    for (std::ptrdiff_t j = 0; j < lines; ++j) Tl[j * spacing] = Sl[j * spacing];
  }
  for (std::ptrdiff_t k = m - 2; k >= 0; --k) {
    double* Tk = T + k * stride;
    const double* Sk = S + k * stride;
    const double* Tn = T + (k + 1) * stride;
    const double cpk = cp[k];
    for (std::ptrdiff_t j = 0; j < lines; ++j) {
      Tk[j * spacing] = Sk[j * spacing] - cpk * Tn[j * spacing];
    }
  }
}

/// Thomas solve of every vertical column at once -- the z pass of
/// step_adi().  Column c's layer-k node sits at k*nc + c; the inner loops run
/// over the contiguous cell index.  The columns carry the power sources, the
/// board leak (layer 0) and the TIM coupling against the lagged sink
/// temperature (top layer).  gup[k] is the layer k -> k+1 link and rc[k] =
/// cap_k / h.
COOLPIM_STENCIL_CLONES
void thomas_columns(double* __restrict T, double* __restrict S, const double* __restrict pw,
                    const double* __restrict cp, const double* __restrict inv,
                    const double* __restrict gup, const double* __restrict rc,
                    double g_board, double ambient_k, double g_sink, double sink_k,
                    std::ptrdiff_t m, std::ptrdiff_t nc) {
  {
    const double i0 = inv[0];
    const double rc0 = rc[0];
    const double g_top = (m == 1) ? g_sink : 0.0;
    for (std::ptrdiff_t c = 0; c < nc; ++c) {
      const double d = rc0 * T[c] + pw[c] + g_board * ambient_k + g_top * sink_k;
      S[c] = d * i0;
    }
  }
  for (std::ptrdiff_t k = 1; k < m; ++k) {
    const double* Tk = T + k * nc;
    const double* pwk = pw + k * nc;
    const double* Sp = S + (k - 1) * nc;
    double* Sk = S + k * nc;
    const double gd = gup[k - 1];
    const double ik = inv[k];
    const double rck = rc[k];
    const double g_top = (k == m - 1) ? g_sink : 0.0;
    for (std::ptrdiff_t c = 0; c < nc; ++c) {
      const double d = rck * Tk[c] + pwk[c] + g_top * sink_k;
      Sk[c] = (d + gd * Sp[c]) * ik;
    }
  }
  {
    double* Tl = T + (m - 1) * nc;
    const double* Sl = S + (m - 1) * nc;
    for (std::ptrdiff_t c = 0; c < nc; ++c) Tl[c] = Sl[c];
  }
  for (std::ptrdiff_t k = m - 2; k >= 0; --k) {
    double* Tk = T + k * nc;
    const double* Sk = S + k * nc;
    const double* Tn = T + (k + 1) * nc;
    const double cpk = cp[k];
    for (std::ptrdiff_t c = 0; c < nc; ++c) Tk[c] = Sk[c] - cpk * Tn[c];
  }
}

}  // namespace

void StackModel::step(Time dt) {
  const double total = dt.as_sec();
  const std::size_t n_sub = substeps_for(dt);
  const double h = total / static_cast<double>(n_sub);
  const double ambient_k = spec_.ambient.as_kelvin();

  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(spec_.floorplan.grid.nx);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const double* pw = power_w_.data();
  const double* ge = g_east_.data() + nc;  // ge[i-1] is the west link
  const std::size_t n_layers = layers_.size();

  for (std::size_t s = 0; s < n_sub; ++s) {
    const double* T = temp_.data() + nc;
    double* N = scratch_.data() + nc;
    const double sink_t = sink_temp_k_;
    double sink_flow = g_sink_ambient_ * (ambient_k - sink_t) + spec_.co_heater_watts;
    for (std::size_t l = 0; l < n_layers; ++l) {
      const Layer& layer = layers_[l];
      const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(l) * nc;
      // Layer 0 has no down-link: its zero term reads the leading ghost
      // block and contributes an exact +/-0.0.
      const double g_down = l > 0 ? layers_[l - 1].g_up : 0.0;
      const double g_board = l == 0 ? g_board_ : 0.0;
      const double* Tl = T + base;
      double* Nl = N + base;
      const double* pwl = pw + base;
      const double* gel = ge + base;
      for (const RowBand& b : row_bands(nx, nc, layer.g_y)) {
        if (l + 1 < n_layers) {
          substep_span(Tl, Nl, pwl, gel, b.begin, b.end, nx, nc, b.g_n, b.g_s, layer.g_up,
                       g_down, g_board, layer.cap, h, ambient_k);
        } else {
          sink_flow = substep_top(Tl, Nl, pwl, gel, b.begin, b.end, nx, nc, b.g_n, b.g_s, g_down,
                                  g_sink_, g_board, layer.cap, h, ambient_k, sink_t, sink_flow);
        }
      }
    }
    sink_temp_k_ += h * sink_flow / spec_.sink_heat_capacity;
    temp_.swap(scratch_);
  }
  mark_temps_changed();
}

void StackModel::refactor_adi(double h) {
  if (adi_.h == h) return;
  const std::size_t n_layers = spec_.layers.size();
  const auto& grid = spec_.floorplan.grid;

  for (std::size_t l = 0; l < n_layers; ++l) {
    adi_.rc[l] = layers_[l].cap / h;
    adi_.gu[l] = layers_[l].g_up;  // zero at the top layer
  }

  // Uniform tridiagonal factorization: diag rc+g at the ends, rc+2g in the
  // interior, off-diagonals -g.  cp holds c'_k (negative), inv the reciprocal
  // elimination denominators.
  const auto factor_uniform = [](double rc, double g, double* cp, double* inv,
                                 std::size_t m) {
    double den = rc + (m > 1 ? g : 0.0);
    inv[0] = 1.0 / den;
    cp[0] = (m > 1 ? -g : 0.0) * inv[0];
    for (std::size_t k = 1; k < m; ++k) {
      const double b = rc + (k + 1 < m ? 2.0 * g : g);
      den = b + g * cp[k - 1];  // b - a*cp with a = -g
      inv[k] = 1.0 / den;
      cp[k] = (k + 1 < m ? -g : 0.0) * inv[k];
    }
  };
  for (std::size_t l = 0; l < n_layers; ++l) {
    factor_uniform(adi_.rc[l], layers_[l].g_x, adi_.cp_x.data() + l * grid.nx,
                   adi_.inv_x.data() + l * grid.nx, grid.nx);
    factor_uniform(adi_.rc[l], layers_[l].g_y, adi_.cp_y.data() + l * grid.ny,
                   adi_.inv_y.data() + l * grid.ny, grid.ny);
  }

  // Vertical column: per-layer up/down links plus the board leak at layer 0
  // and the (lagged-sink) TIM coupling at the top layer.
  double den = 0.0;
  for (std::size_t l = 0; l < n_layers; ++l) {
    const double gu_l = adi_.gu[l];
    const double gd_l = l > 0 ? adi_.gu[l - 1] : 0.0;
    double b = adi_.rc[l] + gu_l + gd_l;
    if (l == 0) b += g_board_;
    if (l + 1 == n_layers) b += g_sink_;
    den = (l == 0) ? b : b + gd_l * adi_.cp_z[l - 1];  // b - a*cp with a = -gd
    adi_.inv_z[l] = 1.0 / den;
    adi_.cp_z[l] = -gu_l * adi_.inv_z[l];
  }

  adi_.sink_rc = spec_.sink_heat_capacity / h;
  adi_.inv_sink_den = 1.0 / (adi_.sink_rc + sink_g_total_);
  adi_.h = h;
}

void StackModel::step_adi(Time dt) {
  COOLPIM_REQUIRE(dt > Time::zero(), "transient step must be positive");
  const double n = std::ceil(dt.as_sec() / (stable_dt_.as_sec() * kAdiDtFactor));
  COOLPIM_REQUIRE(n <= static_cast<double>(kMaxTransientSubsteps),
                  "ADI transient step needs " + std::to_string(n) +
                      " substeps (> kMaxTransientSubsteps); split the step");
  const std::size_t n_sub = n < 1.0 ? std::size_t{1} : static_cast<std::size_t>(n);
  const double h = dt.as_sec() / static_cast<double>(n_sub);
  refactor_adi(h);

  const auto& grid = spec_.floorplan.grid;
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(grid.nx);
  const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(grid.ny);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(n_cells_);
  const std::size_t n_layers = spec_.layers.size();
  const double ambient_k = spec_.ambient.as_kelvin();
  double* T = field();
  double* S = scratch_.data() + nc;  // forward-sweep store, same offsets as T

  for (std::size_t s = 0; s < n_sub; ++s) {
    for (std::size_t l = 0; l < n_layers; ++l) {
      const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(l) * nc;
      // x pass: implicit lateral diffusion along each row of the layer.
      if (nx > 1) {
        thomas_lines(T + base, S + base, adi_.cp_x.data() + l * grid.nx,
                     adi_.inv_x.data() + l * grid.nx, layers_[l].g_x, adi_.rc[l], nx, 1, ny, nx);
      }
      // y pass: implicit lateral diffusion along each column of the layer.
      if (ny > 1) {
        thomas_lines(T + base, S + base, adi_.cp_y.data() + l * grid.ny,
                     adi_.inv_y.data() + l * grid.ny, layers_[l].g_y, adi_.rc[l], ny, nx, nx, 1);
      }
    }
    // z pass: implicit vertical conduction carrying power, board leak and the
    // lagged-sink TIM coupling.
    thomas_columns(T, S, power_w_.data(), adi_.cp_z.data(), adi_.inv_z.data(), adi_.gu.data(),
                   adi_.rc.data(), g_board_, ambient_k, g_sink_, sink_temp_k_,
                   static_cast<std::ptrdiff_t>(n_layers), nc);
    // Implicit sink update against the fresh top-layer field.
    const double* top = T + static_cast<std::ptrdiff_t>(n_layers - 1) * nc;
    double top_sum = 0.0;
    for (std::ptrdiff_t c = 0; c < nc; ++c) top_sum += top[c];
    sink_temp_k_ = (adi_.sink_rc * sink_temp_k_ + g_sink_ambient_ * ambient_k +
                    spec_.co_heater_watts + g_sink_ * top_sum) *
                   adi_.inv_sink_den;
  }
  mark_temps_changed();
}

void StackModel::reset_to_ambient() {
  std::fill(temp_.begin(), temp_.end(), spec_.ambient.as_kelvin());
  sink_temp_k_ = spec_.ambient.as_kelvin();
  mark_temps_changed();
}

void StackModel::set_temperatures(std::span<const double> node_k, double sink_k) {
  COOLPIM_REQUIRE(node_k.size() == n_nodes_, "temperature field size does not match the stack");
  std::copy(node_k.begin(), node_k.end(), field());
  sink_temp_k_ = sink_k;
  mark_temps_changed();
}

const std::vector<StackModel::LayerStat>& StackModel::stats() const {
  if (stats_dirty_) {
    const double* T = field();
    const std::size_t n_layers = spec_.layers.size();
    for (std::size_t l = 0; l < n_layers; ++l) {
      const double* base = T + static_cast<std::ptrdiff_t>(l * n_cells_);
      double peak = base[0];
      double acc = 0.0;
      for (std::size_t c = 0; c < n_cells_; ++c) {
        peak = std::max(peak, base[c]);
        acc += base[c];
      }
      stats_[l] = LayerStat{peak, acc / static_cast<double>(n_cells_)};
    }
    stats_dirty_ = false;
  }
  return stats_;
}

Celsius StackModel::cell_temp(std::size_t layer, std::size_t cell) const {
  COOLPIM_ASSERT(layer < spec_.layers.size() && cell < n_cells_);
  return Celsius::from_kelvin(field()[layer * n_cells_ + cell]);
}

Celsius StackModel::layer_peak(std::size_t layer) const {
  COOLPIM_ASSERT(layer < spec_.layers.size());
  return Celsius::from_kelvin(stats()[layer].peak_k);
}

Celsius StackModel::layer_mean(std::size_t layer) const {
  COOLPIM_ASSERT(layer < spec_.layers.size());
  return Celsius::from_kelvin(stats()[layer].mean_k);
}

Celsius StackModel::peak_over_layers(std::size_t first, std::size_t last) const {
  COOLPIM_ASSERT(first <= last && last < spec_.layers.size());
  const auto& st = stats();
  double peak = -1e9;
  for (std::size_t l = first; l <= last; ++l) {
    peak = std::max(peak, Celsius::from_kelvin(st[l].peak_k).value());
  }
  return Celsius{peak};
}

Celsius StackModel::sink_temp() const { return Celsius::from_kelvin(sink_temp_k_); }

Celsius StackModel::surface_temp() const {
  // The camera sees the package lid: close to the top-die mean, pulled a few
  // degrees toward the sink by the lid/TIM gradient.
  const double top_mean = layer_mean(spec_.layers.size() - 1).value();
  const double sink = sink_temp().value();
  return Celsius{0.7 * top_mean + 0.3 * sink};
}

std::vector<double> StackModel::layer_field(std::size_t layer) const {
  COOLPIM_ASSERT(layer < spec_.layers.size());
  std::vector<double> out(n_cells_);
  const double* T = field();
  for (std::size_t c = 0; c < n_cells_; ++c) {
    out[c] = Celsius::from_kelvin(T[layer * n_cells_ + c]).value();
  }
  return out;
}

}  // namespace coolpim::thermal
