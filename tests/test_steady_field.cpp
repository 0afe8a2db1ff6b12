// Steady-state field tests (docs/PERFORMANCE.md section 2):
//  * HmcThermalModel::solve_steady() -- ambient plus cached unit responses
//    scaled by the applied watts -- lands on a tightly converged SOR solve
//    of the same stack for random power mixes, every cooling solution and
//    the HMC 1.1 geometry with its co-heater;
//  * the field obeys physics: energy balance (power in = heat out through
//    the sink and the board) and monotonicity in PIM rate and in sink
//    resistance;
//  * superposed solves count no SOR iterations, and concurrent first solves
//    of one fresh stack geometry agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "obs/counters.hpp"
#include "obs/names.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "support/thermal_reference.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::thermal {
namespace {

using power::CoolingType;

struct NamedConfig {
  std::string name;
  HmcThermalConfig cfg;
};

/// The four HMC 2.0 coolings and the HMC 1.1 module with a 20 W co-heater.
std::vector<NamedConfig> configs() {
  std::vector<NamedConfig> out;
  for (const auto type : {CoolingType::kPassive, CoolingType::kLowEndActive,
                          CoolingType::kCommodityServer, CoolingType::kHighEndActive}) {
    out.push_back({"hmc20 " + power::cooling(type).name, hmc20_thermal_config(type)});
  }
  out.push_back({"hmc11 + 20 W co-heater", hmc11_thermal_config(CoolingType::kLowEndActive, 20.0)});
  return out;
}

/// A random breakdown of up to ~27 W, each component drawn independently so
/// the mix (not only the total) varies.
power::PowerBreakdown random_power(Rng& rng) {
  power::PowerBreakdown p;
  p.logic_dynamic = Watts{8.0 * rng.next_double()};
  p.logic_background = Watts{6.0 * rng.next_double()};
  p.fu = Watts{5.0 * rng.next_double()};
  p.dram_dynamic = Watts{6.0 * rng.next_double()};
  p.dram_background = Watts{2.0 * rng.next_double()};
  return p;
}

power::OperatingPoint pim_traffic(const hmc::LinkModel& link, double op_per_ns) {
  hmc::TransactionMix mix;
  mix.pim_per_sec = op_per_ns * 1e9;
  mix.reads_per_sec = link.regular_bandwidth_with_pim(mix.pim_per_sec).as_bytes_per_sec() / 64.0;
  power::OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  op.pim_ops_per_sec = mix.pim_per_sec;
  return op;
}

std::vector<double> field_of(const StackModel& stack) {
  const auto t = stack.temperatures_k();
  return {t.begin(), t.end()};
}

TEST(SteadySuperposition, MatchesConvergedSorOnRandomMixes) {
  Rng rng{0x5e9e'7a11'0fa1'2026ULL};
  for (const auto& [name, cfg] : configs()) {
    SCOPED_TRACE(name);
    HmcThermalModel model{cfg};
    for (int mix = 0; mix < 20; ++mix) {
      model.apply_power(random_power(rng));
      model.solve_steady();
      const std::vector<double> superposed = field_of(model.stack());
      const double superposed_sink = model.stack().sink_temp().value();
      const double superposed_peak = model.peak_dram().value();

      // Oracle: SOR on a copy of the same stack, from ambient, converged
      // far below the run tolerance.
      StackModel oracle = model.stack();
      oracle.solve_steady(1e-11, 1000000, SteadyStart::kCold);
      const std::vector<double> converged = field_of(oracle);
      double worst = 0.0;
      for (std::size_t i = 0; i < converged.size(); ++i) {
        worst = std::max(worst, std::abs(superposed[i] - converged[i]));
      }
      EXPECT_LT(worst, 1e-5) << "mix " << mix;
      EXPECT_NEAR(superposed_sink, oracle.sink_temp().value(), 1e-5) << "mix " << mix;

      // The run-tolerance SOR the superposition replaced.
      model.solve_steady(SteadyStart::kCold);
      EXPECT_NEAR(superposed_peak, model.peak_dram().value(), 0.01) << "mix " << mix;
    }
  }
}

TEST(SteadySuperposition, OneResponsePerDistinctPattern) {
  // Logic background, vault centres (logic dynamic and FU share the shape),
  // DRAM; the co-heater adds one.
  EXPECT_EQ(solve_unit_responses(hmc20_thermal_config(CoolingType::kCommodityServer)).size(),
            3u);
  EXPECT_EQ(solve_unit_responses(hmc11_thermal_config(CoolingType::kPassive, 20.0)).size(), 4u);
}

TEST(SteadySuperposition, CountsSolvesButNoSorIterations) {
  HmcThermalModel model{hmc20_thermal_config(CoolingType::kCommodityServer)};
  obs::CounterRegistry counters;
  model.set_observer(obs::Trace{}, &counters, Celsius{85.0});
  Rng rng{7};
  model.apply_power(random_power(rng));
  model.solve_steady();
  model.solve_steady();
  EXPECT_EQ(counters.counter_value(obs::names::kThermalSteadySolves), 2u);
  EXPECT_EQ(counters.counter_value(obs::names::kThermalSteadyIterations), 0u);

  const std::size_t iters = model.solve_steady(SteadyStart::kCold);
  EXPECT_GT(iters, 0u);
  EXPECT_EQ(counters.counter_value(obs::names::kThermalSteadySolves), 3u);
  EXPECT_EQ(counters.counter_value(obs::names::kThermalSteadyIterations), iters);
}

TEST(SteadySuperposition, ConcurrentFirstSolvesOfAFreshStackAgreeBitForBit) {
  // A geometry no other test in this binary uses, so the eight threads race
  // to fill its cache entries.
  HmcThermalConfig cfg = hmc20_thermal_config(CoolingType::kLowEndActive);
  cfg.tim_r = 6.25e-6;
  Rng rng{0xc0ffee};
  const power::PowerBreakdown power = random_power(rng);

  constexpr int kThreads = 8;
  std::vector<std::vector<double>> fields(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HmcThermalModel model{cfg};
      model.apply_power(power);
      start.arrive_and_wait();
      model.solve_steady();
      fields[t] = field_of(model.stack());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(fields[t].size(), fields[0].size());
    for (std::size_t i = 0; i < fields[0].size(); ++i) {
      // Exact equality: every thread superposes the same cached responses.
      ASSERT_EQ(fields[t][i], fields[0][i]) << "thread " << t << " node " << i;
    }
  }
}

TEST(SteadyFieldPhysics, EnergyBalance) {
  // Power in (node watts plus the co-heater) equals heat out: through the
  // sink's resistance to ambient and the board leak under the logic die.
  Rng rng{0xba1a'9ce0ULL};
  for (const auto& [name, cfg] : configs()) {
    SCOPED_TRACE(name);
    HmcThermalModel model{cfg};
    for (int mix = 0; mix < 4; ++mix) {
      const power::PowerBreakdown power = random_power(rng);
      model.apply_power(power);
      model.solve_steady();
      const double in = power.total().value() + cfg.co_heater_watts;
      EXPECT_NEAR(heat_out(model.stack()), in, 1e-6 * in) << "mix " << mix;
    }
  }
}

TEST(SteadyFieldPhysics, PeakDramRisesStrictlyWithPimRate) {
  // The Fig. 5 sweep at commodity cooling: links saturated, PIM share rising.
  const hmc::LinkModel link{hmc::hmc20_config()};
  HmcThermalModel model{hmc20_thermal_config(CoolingType::kCommodityServer)};
  double prev = -1.0;
  for (double rate = 0.0; rate <= 6.5 + 1e-9; rate += 0.5) {
    model.apply_power(power::compute_power(power::EnergyParams{}, pim_traffic(link, rate)));
    model.solve_steady();
    const double peak = model.peak_dram().value();
    EXPECT_GT(peak, prev) << "at " << rate << " op/ns";
    prev = peak;
  }
}

TEST(SteadyFieldPhysics, EveryNodeRisesWithSinkResistance) {
  // One fixed breakdown under sinks of rising resistance: high-end <
  // commodity < low-end < passive, at the DRAM peak and at every node.
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::PowerBreakdown power =
      power::compute_power(power::EnergyParams{}, pim_traffic(link, 1.3));
  std::vector<double> prev_field;
  double prev_peak = -1.0;
  for (const auto type : {CoolingType::kHighEndActive, CoolingType::kCommodityServer,
                          CoolingType::kLowEndActive, CoolingType::kPassive}) {
    SCOPED_TRACE(power::cooling(type).name);
    HmcThermalModel model{hmc20_thermal_config(type)};
    model.apply_power(power);
    model.solve_steady();
    EXPECT_GT(model.peak_dram().value(), prev_peak);
    prev_peak = model.peak_dram().value();
    const std::vector<double> field = field_of(model.stack());
    for (std::size_t i = 0; i < prev_field.size(); ++i) {
      ASSERT_GT(field[i], prev_field[i]) << "node " << i;
    }
    prev_field = field;
  }
}

}  // namespace
}  // namespace coolpim::thermal
