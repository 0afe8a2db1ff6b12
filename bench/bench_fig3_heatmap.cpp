// Fig. 3: heat map at full bandwidth with a commodity-server sink -- the
// 3D per-layer peaks and the 2D logic-layer map with vault-center hot spots.
#include <benchmark/benchmark.h>

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

void BM_HeatmapExtraction(benchmark::State& state) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  thermal::HmcThermalModel model{
      thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  model.apply_power(
      power::compute_power(power::EnergyParams{}, bench::read_traffic(link, 320.0)));
  model.solve_steady();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.logic_heatmap());
  }
}
BENCHMARK(BM_HeatmapExtraction);

// Steady solves across the Fig. 3 bandwidth sweep: Arg(0) re-converges SOR
// from ambient every point, Arg(1) superposes the cached unit responses (the
// run path; filled by print_fig3 before the timed loop).  bench/perf_thermal
// tracks the same comparison.
void BM_Fig3SteadySweep(benchmark::State& state) {
  const bool superposed = state.range(0) != 0;
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  thermal::HmcThermalModel model{
      thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  std::size_t iters = 0;
  for (auto _ : state) {
    for (double bw = 0.0; bw <= 320.0; bw += 40.0) {
      model.apply_power(power::compute_power(ep, bench::read_traffic(link, bw)));
      if (superposed) {
        model.solve_steady();
      } else {
        iters += model.solve_steady(thermal::SteadyStart::kCold);
      }
    }
  }
  state.counters["iters_per_sweep"] =
      benchmark::Counter(static_cast<double>(iters) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_Fig3SteadySweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init_observability(&argc, argv);
  print_fig3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
