// Ablation: control factor (CF) and HW-DynT delayed-update window.
//
// Paper Section IV-B: "A larger CF value allows for a fast cooldown of HMC;
// however, it also increases the chance of under-tuning the PTP size"; and
// Section IV-C motivates the delayed PCU updates by the over-reduction risk.
#include <iostream>

#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_cf_sweep() {
  Table sw{"Ablation -- SW-DynT control factor (dc workload)"};
  sw.header({"CF (blocks)", "Speedup vs baseline", "Avg PIM rate (op/ns)", "Peak DRAM (C)"});
  const auto base = run_one("dc", sys::Scenario::kNonOffloading);
  for (const std::uint32_t cf : {1u, 2u, 4u, 8u, 16u, 32u}) {
    sys::SystemConfig cfg;
    cfg.sw_control_factor = cf;
    const auto r = run_one("dc", sys::Scenario::kCoolPimSw, cfg);
    sw.row({std::to_string(cf), Table::num(base.exec_time / r.exec_time, 2),
            Table::num(r.avg_pim_rate_op_per_ns(), 2),
            Table::num(r.peak_dram_temp.value(), 1)});
  }
  sw.print(std::cout);

  Table hw{"Ablation -- HW-DynT control factor (dc workload)"};
  hw.header({"CF (warps)", "Speedup vs baseline", "Avg PIM rate (op/ns)", "Peak DRAM (C)"});
  for (const std::uint32_t cf : {1u, 2u, 4u, 8u, 16u, 32u}) {
    sys::SystemConfig cfg;
    cfg.hw_control_factor = cf;
    const auto r = run_one("dc", sys::Scenario::kCoolPimHw, cfg);
    hw.row({std::to_string(cf), Table::num(base.exec_time / r.exec_time, 2),
            Table::num(r.avg_pim_rate_op_per_ns(), 2),
            Table::num(r.peak_dram_temp.value(), 1)});
  }
  hw.print(std::cout);
  std::cout << "Small CF converges slowly (time spent hot); large CF over-throttles\n"
               "(under-tuned PIM rate) -- the trade-off the paper describes.\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_cf_sweep();
  return 0;
}
