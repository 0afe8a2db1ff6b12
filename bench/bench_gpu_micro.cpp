// Micro-validation of the GPU model: occupancy vs achieved bandwidth
// (roofline) and PIM vs read/write-pair throughput, measured on the
// event-detailed warp model driving the event-detailed HMC device.
// Substantiates the epoch model's latency-hiding and FLIT-cost assumptions.
#include <iostream>

#include "common/table.hpp"

#include "support.hpp"
#include "gpu/detailed.hpp"

using namespace coolpim;

namespace {

gpu::DetailedResult run_config(std::size_t warps, hmc::TransactionType type,
                               std::uint64_t compute) {
  sim::Simulation sim;
  hmc::Device device{sim, hmc::hmc20_config()};
  gpu::DetailedGpu g{sim, gpu::GpuConfig{}, device};
  gpu::WarpTrace trace;
  trace.memory_ops = 400;
  trace.compute_per_memop = compute;
  trace.type = type;
  g.launch(std::vector<gpu::WarpTrace>(warps, trace));
  sim.run_to_completion();
  return g.result();
}

void print_occupancy_roofline() {
  Table t{"GPU micro-model -- occupancy vs achieved read bandwidth"};
  t.header({"Resident warps", "Achieved (GB/s)", "Avg latency (ns)", "Bandwidth bar"});
  double peak = 0.0;
  std::vector<std::pair<std::size_t, gpu::DetailedResult>> rows;
  for (const std::size_t warps : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    rows.emplace_back(warps, run_config(warps, hmc::TransactionType::kRead64, 2));
    peak = std::max(peak, rows.back().second.achieved_gbps);
  }
  for (const auto& [warps, r] : rows) {
    t.row({std::to_string(warps), Table::num(r.achieved_gbps, 1),
           Table::num(r.avg_latency_ns, 0), ascii_bar(r.achieved_gbps, peak, 30)});
  }
  t.print(std::cout);
  std::cout << "Latency hiding through occupancy: bandwidth grows ~linearly with warps\n"
               "until the HMC response pipe saturates, then queueing inflates latency --\n"
               "the mechanism behind the epoch model's latency-bound cap.\n";
}

void print_pim_throughput() {
  Table t{"GPU micro-model -- update throughput: PIM ops vs host RMW pairs"};
  t.header({"Path", "Updates/s (millions)", "Relative"});
  const auto pim = run_config(256, hmc::TransactionType::kPimNoReturn, 2);
  const double pim_rate = static_cast<double>(pim.memory_ops) / pim.completion.as_sec();
  // Host path: one read + one write per update -> half the transactions are
  // updates.
  const auto rw = run_config(256, hmc::TransactionType::kRead64, 2);
  const auto wr = run_config(256, hmc::TransactionType::kWrite64, 2);
  const double rw_rate = 1.0 / (pim.completion.as_sec() * 0.0 +
                                rw.completion.as_sec() / rw.memory_ops +
                                wr.completion.as_sec() / wr.memory_ops);
  t.row({"PIM (3 FLITs/update)", Table::num(pim_rate * 1e-6, 1), "1.00"});
  t.row({"host RMW (12 FLITs/update)", Table::num(rw_rate * 1e-6, 1),
         Table::num(rw_rate / pim_rate, 2)});
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_occupancy_roofline();
  print_pim_throughput();
  return 0;
}
