// Development tool: prints the thermal model's outputs at the paper's anchor
// operating points so the calibrated constants in HmcThermalConfig and
// EnergyParams can be tuned.  Not part of the shipped experiment set.
#include <cmath>
#include <cstdio>

#include "common/units.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "thermal/hmc_thermal.hpp"

using namespace coolpim;

namespace {

power::OperatingPoint op_for_bandwidth(const hmc::LinkModel& link, double data_gbps) {
  // Pure read traffic at the requested data bandwidth.
  hmc::TransactionMix mix{};
  mix.reads_per_sec = data_gbps * 1e9 / 64.0;
  power::OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  op.pim_ops_per_sec = 0.0;
  return op;
}

power::OperatingPoint op_for_pim(const hmc::LinkModel& link, double pim_per_ns) {
  // Fig. 5 scenario: links fully utilized by PIM ops + regular reads.
  const double pim_per_sec = pim_per_ns * 1e9;
  hmc::TransactionMix mix{};
  mix.pim_per_sec = pim_per_sec;
  mix.reads_per_sec = link.regular_bandwidth_with_pim(pim_per_sec).as_bytes_per_sec() / 64.0;
  power::OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  op.pim_ops_per_sec = pim_per_sec;
  return op;
}

double peak_dram_at(thermal::HmcThermalModel& model, const power::EnergyParams& ep,
                    const power::OperatingPoint& op) {
  model.apply_power(power::compute_power(ep, op));
  model.solve_steady();
  return model.peak_dram().value();
}

}  // namespace

int main() {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;

  std::printf("== HMC 2.0, commodity sink ==\n");
  thermal::HmcThermalModel m20{
      thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer)};

  const auto idle = op_for_bandwidth(link, 0.0);
  std::printf("idle:            peak DRAM %.1f C   (paper: 33)\n", peak_dram_at(m20, ep, idle));
  const auto full = op_for_bandwidth(link, 320.0);
  auto pb = power::compute_power(ep, full);
  std::printf("320 GB/s:        peak DRAM %.1f C   (paper: 81)   [P=%.1f W logic %.1f dram %.1f]\n",
              peak_dram_at(m20, ep, full), pb.total().value(), pb.logic_total().value(),
              pb.dram_total().value());

  for (const double r : {1.3, 3.0, 5.0, 6.5}) {
    const auto op = op_for_pim(link, r);
    pb = power::compute_power(ep, op);
    std::printf("PIM %.1f op/ns:   peak DRAM %.1f C   (paper: %s)  [P=%.1f W, internal %.0f GB/s]\n",
                r, peak_dram_at(m20, ep, op), r == 1.3 ? "85" : (r == 6.5 ? "105" : "-"),
                pb.total().value(), op.dram_internal.as_gbps());
  }

  std::printf("\n== HMC 2.0, other sinks at 320 GB/s ==\n");
  for (const auto type : {power::CoolingType::kPassive, power::CoolingType::kLowEndActive,
                          power::CoolingType::kHighEndActive}) {
    thermal::HmcThermalModel m{thermal::hmc20_thermal_config(type)};
    std::printf("%-24s peak DRAM %.1f C\n", power::cooling(type).name.c_str(),
                peak_dram_at(m, ep, op_for_bandwidth(link, 320.0)));
  }

  std::printf("\n== HMC 1.1 module (FPGA co-heater) ==\n");
  const hmc::LinkModel link11{hmc::hmc11_config()};
  struct Case { power::CoolingType type; double bw; const char* label; const char* paper; };
  const Case cases[] = {
      {power::CoolingType::kPassive, 0.0, "passive idle", "71.1 surf"},
      {power::CoolingType::kPassive, 60.0, "passive busy", "85.4 surf (shutdown)"},
      {power::CoolingType::kLowEndActive, 0.0, "low-end idle", "45.3 surf"},
      {power::CoolingType::kLowEndActive, 60.0, "low-end busy", "60.5 surf"},
      {power::CoolingType::kHighEndActive, 0.0, "high-end idle", "40.5 surf"},
      {power::CoolingType::kHighEndActive, 60.0, "high-end busy", "47.3 surf"},
  };
  for (const auto& c : cases) {
    const double fpga_w = c.bw > 0.0 ? 30.0 : 20.0;  // FPGA works harder when driving traffic
    thermal::HmcThermalModel m{thermal::hmc11_thermal_config(c.type, fpga_w)};
    const auto op = op_for_bandwidth(link11, c.bw);
    m.apply_power(power::compute_power(ep, op));
    m.solve_steady();
    std::printf("%-16s surface %.1f C  die %.1f C   (paper: %s)\n", c.label,
                m.surface().value(), m.peak_dram().value(), c.paper);
  }

  // Transient-settle cross-check: each anchor operating point marches from
  // ambient through the explicit transient kernel until equilibrium; the
  // settled peak DRAM must land on the steady-state solve at every point
  // (the transient and steady solvers agree on the same network).
  std::printf("\n== Transient settle vs steady (StackModel::step) ==\n");
  {
    const thermal::HmcThermalConfig tc =
        thermal::hmc20_thermal_config(power::CoolingType::kCommodityServer);
    struct SettleCase { const char* label; power::OperatingPoint op; };
    const SettleCase settle_cases[] = {
        {"idle", op_for_bandwidth(link, 0.0)},
        {"320 GB/s", op_for_bandwidth(link, 320.0)},
        {"PIM 1.3 op/ns", op_for_pim(link, 1.3)},
        {"PIM 6.5 op/ns", op_for_pim(link, 6.5)},
    };
    for (const auto& c : settle_cases) {
      const power::PowerBreakdown pwr = power::compute_power(ep, c.op);
      thermal::HmcThermalModel settling{tc};
      settling.apply_power(pwr);
      // March (tau ~1 ms) until the peak stops moving.
      double prev_peak = -1e300;
      for (int i = 0; i < 200; ++i) {
        settling.step(Time::ms(1.0));
        const double peak = settling.peak_dram().value();
        if (std::abs(peak - prev_peak) < 1e-4) break;
        prev_peak = peak;
      }
      thermal::HmcThermalModel steady{tc};
      steady.apply_power(pwr);
      steady.solve_steady();
      const double settled = settling.peak_dram().value();
      const double want = steady.peak_dram().value();
      std::printf("%-16s settled %.2f C  steady %.2f C  |diff| %.3f C%s\n", c.label, settled,
                  want, std::abs(settled - want),
                  std::abs(settled - want) < 0.1 ? "" : "   <-- DISAGREE");
    }
  }
  // Fleet grid-mode derate constant: GridThermalConfig::watts_per_c converts
  // the RC load signal (degC of heat_weighted_ms / epoch_ms) into logic-die
  // watts, so the grid's steady peak-DRAM response lands on the RC model's
  // steady target (ambient + load_c).  The fit is just the reciprocal of the
  // grid's junction-to-ambient resistance, measured the same way the fleet
  // reads the stack: inject 1 W uniform on the logic die, solve steady, take
  // the peak over the DRAM layers.  heat_capacity_scale compresses the time
  // constant only -- the steady response, and hence this fit, is unaffected.
  std::printf("\n== Fleet grid watts_per_c fit (hbm_stack_spec; docs/FLEET.md) ==\n");
  {
    struct GridCase { std::size_t dies, nx, ny; };
    const GridCase grids[] = {{8, 8, 8}, {16, 8, 8}, {8, 16, 16}};
    for (const auto& g : grids) {
      const thermal::StackSpec spec = thermal::hbm_stack_spec(g.dies, g.nx, g.ny);
      thermal::StackModel m{spec};
      m.set_layer_power(0, thermal::uniform_power(spec.floorplan, 1.0));
      m.solve_steady();
      const std::size_t top = m.layer_count() - 1;
      const double r_ja = m.peak_over_layers(1, top).value() - spec.ambient.value();
      const double fit = 1.0 / r_ja;
      // Linearity cross-check: the RC network is linear in power, so a
      // 20 degC load signal through the fitted constant must come back as a
      // 20 degC peak-DRAM rise (up to solver tolerance).
      const double load_c = 20.0;
      m.set_layer_power(0, thermal::uniform_power(spec.floorplan, fit * load_c));
      m.solve_steady();
      const double rise = m.peak_over_layers(1, top).value() - spec.ambient.value();
      std::printf(
          "%2zu dies %2zux%-2zu  R_ja %.4f C/W  watts_per_c %.4f%s  "
          "check: %.0f C load -> %.2f C rise\n",
          g.dies, g.nx, g.ny, r_ja, fit,
          (g.dies == 8 && g.nx == 8 && g.ny == 8) ? "  (shipped default 0.9)" : "",
          load_c, rise);
    }
  }
  return 0;
}
