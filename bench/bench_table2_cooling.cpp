// Table II: typical cooling types -- thermal resistance and fan power --
// plus the fan-curve interpolation used by the cooling ablations.
#include <iostream>

#include "common/table.hpp"

#include "support.hpp"
#include "power/cooling.hpp"

using namespace coolpim;

namespace {

void print_table2() {
  Table t{"Table II -- Typical cooling types"};
  t.header({"Type", "Thermal resistance (C/W)", "Cooling power (rel.)", "Fan power (W)"});
  for (const auto& s : power::all_cooling_solutions()) {
    t.row({s.name, Table::num(s.resistance.value(), 1),
           s.fan_power_rel == 0.0 ? "0" : Table::num(s.fan_power_rel, 0) + "x",
           Table::num(s.fan_power_watts, 2)});
  }
  t.print(std::cout);

  Table fit{"Fan-curve interpolation (log-log fit through the active points)"};
  fit.header({"Sink resistance (C/W)", "Fan power (W)"});
  for (const double r : {2.0, 1.5, 1.0, 0.5, 0.27, 0.2}) {
    fit.row({Table::num(r, 2),
             Table::num(power::fan_power_for_resistance(ThermalResistance{r}), 2)});
  }
  fit.print(std::cout);
  std::cout << "Note: R <= 0.27 C/W (paper Section III-B, full-loaded PIM) already costs "
            << Table::num(power::fan_power_for_resistance(ThermalResistance{0.27}), 1)
            << " W of fan power.\n";
}

}  // namespace

int main(int argc, char** argv) {
  coolpim::bench::init(argc, argv);
  print_table2();
  return 0;
}
