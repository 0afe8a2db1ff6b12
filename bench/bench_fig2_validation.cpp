// Fig. 2: thermal model validation -- measured surface temperature vs die
// temperature estimated from the surface vs die temperature from the model,
// for the low-end and high-end module heat sinks at full HMC 1.1 load.
#include <cmath>
#include <iostream>

#include "common/table.hpp"

#include "support.hpp"
#include "hmc/config.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

void print_fig2() {
  const hmc::LinkModel link{hmc::hmc11_config()};
  const auto op = bench::read_traffic(link, 60.0);
  const auto pb = power::compute_power(power::EnergyParams{}, op);

  Table t{"Fig. 2 -- Thermal model validation (HMC 1.1, busy)"};
  t.header({"Cooling", "Surface measured (paper, C)", "Die estimated (C)", "Die modeled (C)",
            "Error (C)"});
  struct Case {
    power::CoolingType type;
    double paper_surface;
  };
  for (const auto& c : {Case{power::CoolingType::kLowEndActive, 60.5},
                        Case{power::CoolingType::kHighEndActive, 47.3}}) {
    // "Die estimated": paper's rule of thumb applied to the measured surface.
    const Celsius estimated = thermal::HmcThermalModel::estimate_die_from_surface(
        Celsius{c.paper_surface}, pb.total());
    thermal::HmcThermalModel model{thermal::hmc11_thermal_config(c.type, 30.0)};
    model.apply_power(pb);
    model.solve_steady();
    const double modeled = model.peak_dram().value();
    t.row({power::prototype_cooling(c.type).name, Table::num(c.paper_surface, 1),
           Table::num(estimated.value(), 1), Table::num(modeled, 1),
           Table::num(std::abs(modeled - estimated.value()), 1)});
  }
  t.print(std::cout);
  std::cout << "The modeled die temperature tracks the estimate derived from the thermal-\n"
               "camera measurement (paper: \"a reasonable error compared to the real system\").\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_fig2();
  return 0;
}
