// Ablation: offload coherence policy (GraphPIM uncacheable region vs
// PEI-style coherent writeback) and host-atomic coalescing sensitivity.
//
// Paper Section II-B: "the cache-bypassing policy can bring an additional
// performance benefit because of avoiding the unnecessary cache-checking
// overhead" -- here quantified as the coherence traffic PEI adds per offload.
#include <iostream>

#include "common/table.hpp"
#include "support.hpp"

using namespace coolpim;
using namespace coolpim::bench;

namespace {

void print_offload_policy() {
  Table t{"Ablation -- offload coherence policy (CoolPIM HW)"};
  t.header({"Workload", "GraphPIM (uncacheable) speedup", "PEI (coherent) speedup",
            "PEI extra traffic (%)"});
  for (const std::string wl : {"dc", "pagerank", "sssp-dwc"}) {
    const auto base = run_one(wl, sys::Scenario::kNonOffloading);
    sys::SystemConfig pei_cfg;
    pei_cfg.gpu.offload_policy = gpu::OffloadPolicy::kCoherentWriteback;
    const auto graphpim = run_one(wl, sys::Scenario::kCoolPimHw);
    const auto pei = run_one(wl, sys::Scenario::kCoolPimHw, pei_cfg);
    t.row({wl, Table::num(base.exec_time / graphpim.exec_time, 2),
           Table::num(base.exec_time / pei.exec_time, 2),
           Table::num(100.0 * (pei.consumption_bytes() / graphpim.consumption_bytes() - 1.0),
                      1)});
  }
  t.print(std::cout);
  std::cout << "GraphPIM's uncacheable PIM region avoids per-offload coherence traffic,\n"
               "which is why the paper adopts it for the offload target data.\n";
}

void print_coalescing() {
  Table t{"Ablation -- host-atomic coalescing factor (dc baseline exec)"};
  t.header({"Coalescing factor", "Baseline exec (ms)", "Ideal-offload speedup"});
  for (const double f : {0.5, 0.7, 0.9, 1.0}) {
    sys::SystemConfig cfg;
    cfg.gpu.host_atomic_coalescing = f;
    const auto base = run_one("dc", sys::Scenario::kNonOffloading, cfg);
    const auto ideal = run_one("dc", sys::Scenario::kIdealThermal, cfg);
    t.row({Table::num(f, 1), Table::num(base.exec_time.as_ms(), 2),
           Table::num(base.exec_time / ideal.exec_time, 2)});
  }
  t.print(std::cout);
  std::cout << "The more the baseline's RMWs coalesce at the L2 atomic units, the smaller\n"
               "the bandwidth gap PIM offloading can exploit.\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_offload_policy();
  print_coalescing();
  return 0;
}
