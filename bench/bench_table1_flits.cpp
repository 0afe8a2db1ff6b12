// Table I: HMC memory transaction bandwidth requirement in FLITs, plus the
// event-detailed device's simulated service time per transaction type.
#include <iostream>

#include "common/table.hpp"

#include "support.hpp"
#include "hmc/device.hpp"
#include "hmc/packet.hpp"

using namespace coolpim;

namespace {

constexpr hmc::TransactionType kTypes[] = {
    hmc::TransactionType::kRead64, hmc::TransactionType::kWrite64,
    hmc::TransactionType::kPimNoReturn, hmc::TransactionType::kPimWithReturn};

void print_table1() {
  Table t{"Table I -- HMC memory transaction bandwidth requirement in FLITs (FLIT = 128 bit)"};
  t.header({"Type", "Request", "Response", "Total bytes"});
  for (const auto type : kTypes) {
    const auto cost = hmc::flit_cost(type);
    t.row({std::string(hmc::to_string(type)), std::to_string(cost.request) + " FLITs",
           std::to_string(cost.response) + " FLITs", std::to_string(cost.total_bytes())});
  }
  t.print(std::cout);
  std::cout << "PIM offloading saves up to "
            << Table::num(100.0 * (1.0 - 3.0 / 6.0), 0)
            << "% of the link FLITs per update (paper Section II-B).\n";
}

// Simulated time the event-detailed HMC 2.0 device takes per request when
// 1,000 requests of one type arrive back to back.
void print_service_time() {
  constexpr int kRequests = 1000;
  Table t{"Event-detailed HMC 2.0 device -- simulated time per request (1,000 back to back)"};
  t.header({"Type", "Per request (ns)"});
  for (const auto type : kTypes) {
    sim::Simulation sim;
    hmc::Device dev{sim, hmc::hmc20_config()};
    for (int i = 0; i < kRequests; ++i) {
      dev.submit({type, static_cast<std::uint64_t>(i) * 64, 0}, [](const hmc::Response&) {});
    }
    sim.run_to_completion();
    t.row({std::string(hmc::to_string(type)), Table::num(sim.now().as_ns() / kRequests, 6)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_table1();
  print_service_time();
  return 0;
}
