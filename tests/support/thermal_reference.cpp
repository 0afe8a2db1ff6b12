#include "support/thermal_reference.hpp"

#include <algorithm>

namespace coolpim::thermal {

ReferenceSweep::ReferenceSweep(const StackSpec& spec) : spec_{spec} {
  const auto& fp = spec_.floorplan;
  const std::size_t nx = fp.grid.nx;
  const std::size_t ny = fp.grid.ny;
  const double cw = fp.cell_width_m();
  const double ch = fp.cell_height_m();
  const double area = fp.cell_area_m2();
  const std::size_t n_layers = spec_.layers.size();
  const std::size_t n_cells = fp.grid.cells();
  const std::size_t n_nodes = n_cells * n_layers;

  for (auto* table : {&g_east_, &g_west_, &g_north_, &g_south_, &g_up_, &g_down_, &g_sink_,
                      &g_board_, &cap_}) {
    table->assign(n_nodes, 0.0);
  }
  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto& layer = spec_.layers[l];
    const double t = layer.thickness_m;
    const double k = layer.conductivity;
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = l * n_cells + fp.grid.index(x, y);
        cap_[i] = layer.volumetric_heat_capacity * area * t;
        if (x + 1 < nx) g_east_[i] = k * t * ch / cw;
        if (y + 1 < ny) g_north_[i] = k * t * cw / ch;
        if (l + 1 < n_layers) {
          const auto& above = spec_.layers[l + 1];
          const double r = t / (2.0 * k) + layer.interface_r_above +
                           above.thickness_m / (2.0 * above.conductivity);
          g_up_[i] = area / r;
        } else {
          const double r = t / (2.0 * k) + spec_.tim_r;
          g_sink_[i] = area / r;
        }
        if (l == 0) g_board_[i] = 1.0 / (spec_.board_r * static_cast<double>(n_cells));
      }
    }
  }
  // A node's west/south/down link is its west/south/lower neighbour's
  // east/north/up link.
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = l * n_cells + fp.grid.index(x, y);
        if (x > 0) g_west_[i] = g_east_[i - 1];
        if (y > 0) g_south_[i] = g_north_[i - nx];
        if (l > 0) g_down_[i] = g_up_[i - n_cells];
      }
    }
  }

  g_sink_ambient_ = 1.0 / spec_.sink_r.value();
  double sink_g_total = g_sink_ambient_;
  for (const double g : g_sink_) sink_g_total += g;
  double dt_min = spec_.sink_heat_capacity / sink_g_total;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const double diag = g_up_[i] + g_sink_[i] + g_board_[i] + g_east_[i] + g_west_[i] +
                        g_north_[i] + g_south_[i] + g_down_[i];
    dt_min = std::min(dt_min, cap_[i] / diag);
  }
  stable_dt_ = Time::sec(0.5 * dt_min);
}

void ReferenceSweep::step(StackModel& model, Time dt) const {
  const std::size_t n_sub = model.substeps_for(dt);
  const double h = dt.as_sec() / static_cast<double>(n_sub);

  const auto& fp = spec_.floorplan;
  const std::size_t nx = fp.grid.nx;
  const std::size_t ny = fp.grid.ny;
  const std::size_t n_layers = spec_.layers.size();
  const std::size_t n_cells = fp.grid.cells();
  const double ambient_k = spec_.ambient.as_kelvin();
  const auto power = model.power_w();
  const auto field = model.temperatures_k();
  std::vector<double> T(field.begin(), field.end());
  double sink_k = model.sink_temp_k();

  std::vector<double> next(T.size());
  for (std::size_t s = 0; s < n_sub; ++s) {
    double sink_flow = g_sink_ambient_ * (ambient_k - sink_k) + spec_.co_heater_watts;
    for (std::size_t l = 0; l < n_layers; ++l) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          // The layer offset is recomputed per node, as in the sweep the
          // committed perf_thermal baseline timed: transient.speedup divides
          // by this loop's cost.
          const std::size_t i = l * fp.grid.cells() + fp.grid.index(x, y);
          const double t = T[i];
          double flow = power[i];
          if (x + 1 < nx) flow += g_east_[i] * (T[i + 1] - t);
          if (x > 0) flow += g_west_[i] * (T[i - 1] - t);
          if (y + 1 < ny) flow += g_north_[i] * (T[i + nx] - t);
          if (y > 0) flow += g_south_[i] * (T[i - nx] - t);
          if (l + 1 < n_layers) flow += g_up_[i] * (T[i + n_cells] - t);
          if (l > 0) flow += g_down_[i] * (T[i - n_cells] - t);
          if (g_sink_[i] > 0.0) {
            const double f = g_sink_[i] * (sink_k - t);
            flow += f;
            sink_flow -= f;
          }
          flow += g_board_[i] * (ambient_k - t);
          next[i] = t + h * flow / cap_[i];
        }
      }
    }
    sink_k += h * sink_flow / spec_.sink_heat_capacity;
    std::copy(next.begin(), next.end(), T.begin());
  }
  model.set_temperatures(T, sink_k);
}

double heat_out(const StackModel& model) {
  const StackSpec& spec = model.spec();
  const double ambient_k = spec.ambient.as_kelvin();
  const double g_board = 1.0 / (spec.board_r * static_cast<double>(model.cells_per_layer()));
  const auto t = model.temperatures_k();
  double out = (model.sink_temp_k() - ambient_k) / spec.sink_r.value();
  for (std::size_t c = 0; c < model.cells_per_layer(); ++c) out += g_board * (t[c] - ambient_k);
  return out;
}

}  // namespace coolpim::thermal
