// Fig. 13: peak DRAM temperature per workload under naive offloading and the
// two CoolPIM mechanisms.
#include <iostream>

#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_fig13() {
  const auto& matrix = scenario_matrix();

  Table t{"Fig. 13 -- Peak DRAM temperature (C)"};
  t.header({"Workload", "Naive-Offloading", "CoolPIM (SW)", "CoolPIM (HW)",
            "Naive time derated (%)"});
  for (const auto& row : matrix) {
    const auto& naive = row.at(sys::Scenario::kNaiveOffloading);
    const double derated_pct = naive.exec_time > Time::zero()
                                   ? 100.0 * (naive.time_above_normal / naive.exec_time)
                                   : 0.0;
    t.row({row.workload, Table::num(naive.peak_dram_temp.value(), 1),
           Table::num(row.at(sys::Scenario::kCoolPimSw).peak_dram_temp.value(), 1),
           Table::num(row.at(sys::Scenario::kCoolPimHw).peak_dram_temp.value(), 1),
           Table::num(derated_pct, 0)});
  }
  t.print(std::cout);
  std::cout
      << "Naive offloading pushes the hot workloads past the 85 C normal limit (paper:\n"
         "most exceed 90 C, bfs-dwc/twc reach ~95 C) and spends most of the run derated;\n"
         "CoolPIM keeps every workload at or below ~85 C.\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_fig13();
  return 0;
}
