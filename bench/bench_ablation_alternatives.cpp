// Ablation: CoolPIM's *selective* source throttling vs the alternative
// policies the paper dismisses (Section III-C): doing nothing (naive, the
// device derates reactively) and blanket host-side bandwidth throttling.
#include <iostream>

#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_alternatives() {
  Table t{"Ablation -- throttling policy alternatives"};
  t.header({"Workload", "Policy", "Speedup", "PIM rate (op/ns)", "Peak DRAM (C)",
            "Time derated (%)"});
  for (const std::string wl : {"dc", "pagerank", "sssp-dwc"}) {
    const auto base = run_one(wl, sys::Scenario::kNonOffloading);
    for (const auto scenario :
         {sys::Scenario::kNaiveOffloading, sys::Scenario::kBwThrottle,
          sys::Scenario::kCoolPimHw}) {
      const auto r = run_one(wl, scenario);
      const double derated =
          r.exec_time > Time::zero() ? 100.0 * (r.time_above_normal / r.exec_time) : 0.0;
      t.row({wl, r.scenario, Table::num(base.exec_time / r.exec_time, 2),
             Table::num(r.avg_pim_rate_op_per_ns(), 2),
             Table::num(r.peak_dram_temp.value(), 1), Table::num(derated, 0)});
    }
  }
  t.print(std::cout);
  std::cout
      << "Naive offloading loses outright: the device derates reactively and spends\n"
         "the run in the extended range.  Blanket host-side throttling is competitive\n"
         "on uniformly bandwidth-bound kernels (every byte trimmed cools the cube),\n"
         "but it under- or over-shoots and penalizes regular traffic on mixed kernels\n"
         "(sssp-dwc), where CoolPIM's selective trimming of the hot PIM path wins.\n"
         "CoolPIM also needs no demand-side rate-control hardware: it reuses the\n"
         "existing kernel-launch path (SW) or a per-SM PCU (HW).\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_alternatives();
  return 0;
}
