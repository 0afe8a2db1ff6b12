// Fig. 3: heat map at full bandwidth with a commodity-server sink -- the
// 3D per-layer peaks and the 2D logic-layer map with vault-center hot spots.
#include <algorithm>
#include <iostream>

#include "common/table.hpp"

#include "support.hpp"
#include "hmc/config.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

void print_fig3() {
  const hmc::LinkModel link{hmc::hmc20_config()};
  thermal::HmcThermalModel model{
      thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  model.apply_power(
      power::compute_power(power::EnergyParams{}, bench::read_traffic(link, 320.0)));
  model.solve_steady();

  Table layers{"Fig. 3 (left) -- per-layer temperatures, full BW + commodity sink"};
  layers.header({"Layer", "Peak (C)", "Mean (C)"});
  const auto& stack = model.stack();
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    layers.row({stack.spec().layers[l].name, Table::num(stack.layer_peak(l).value(), 1),
                Table::num(stack.layer_mean(l).value(), 1)});
  }
  layers.row({"heat sink", Table::num(stack.sink_temp().value(), 1),
              Table::num(stack.sink_temp().value(), 1)});
  layers.print(std::cout);

  // 2D logic-layer heat map rendered as intensity characters.
  const auto field = model.logic_heatmap();
  const auto& grid = model.config().floorplan.grid;
  const double lo = *std::min_element(field.begin(), field.end());
  const double hi = *std::max_element(field.begin(), field.end());
  std::cout << "\nFig. 3 (right) -- logic-layer heat map (" << Table::num(lo, 1) << " C = '.', "
            << Table::num(hi, 1) << " C = '@'):\n";
  const char* shades = ".:-=+*#%@";
  for (std::size_t y = 0; y < grid.ny; ++y) {
    std::cout << "  ";
    for (std::size_t x = 0; x < grid.nx; ++x) {
      const double t = field[grid.index(x, y)];
      const int idx = static_cast<int>((t - lo) / (hi - lo + 1e-9) * 8.999);
      std::cout << shades[idx];
    }
    std::cout << '\n';
  }
  std::cout << "Hot spots appear at the vault centers of the logic die (paper Fig. 3); the\n"
               "lowest DRAM die and the logic layer reach the highest temperatures.\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_fig3();
  return 0;
}
