// Fig. 5: thermal impact of PIM offloading -- peak DRAM temperature vs PIM
// rate with fully utilized links and a commodity-server sink.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/table.hpp"

#include "support.hpp"
#include "hmc/config.hpp"
#include "hmc/thermal_policy.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

void print_fig5() {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  const hmc::ThermalPolicy policy;

  Table t{"Fig. 5 -- Peak DRAM temperature vs PIM offloading rate (commodity sink)"};
  t.header({"PIM rate (op/ns)", "Internal BW (GB/s)", "Peak DRAM (C)", "Phase"});
  double budget_rate = 0.0, limit_rate = 0.0;
  // Every PIM-rate point superposes the same cached unit responses
  // (docs/PERFORMANCE.md section 2).
  thermal::HmcThermalModel model{
      thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  for (double rate = 0.0; rate <= 6.5 + 1e-9; rate += 0.5) {
    const auto op = bench::pim_traffic(link, rate);
    model.apply_power(power::compute_power(ep, op));
    model.solve_steady();
    const double temp = model.peak_dram().value();
    if (temp <= 85.0) budget_rate = rate;
    if (temp <= 105.0) limit_rate = rate;
    t.row({Table::num(rate, 1), Table::num(op.dram_internal.as_gbps(), 0),
           Table::num(temp, 1), std::string(to_string(policy.phase(Celsius{temp})))});
  }
  t.print(std::cout);
  std::cout << "Measured thermal budget: PIM rate <= " << Table::num(budget_rate, 1)
            << " op/ns keeps DRAM below 85 C (paper: 1.3 op/ns);\n"
            << "maximum rate within the 105 C limit: " << Table::num(limit_rate, 1)
            << " op/ns (paper: 6.5 op/ns).\n";
}

void BM_Fig5Point(benchmark::State& state) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  const double rate = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    thermal::HmcThermalModel model{
        thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};
    model.apply_power(power::compute_power(ep, bench::pim_traffic(link, rate)));
    model.solve_steady();
    benchmark::DoNotOptimize(model.peak_dram());
  }
  state.counters["op_per_ns"] = rate;
}
BENCHMARK(BM_Fig5Point)->Arg(13)->Arg(40)->Arg(65)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init_observability(&argc, argv);
  print_fig5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
