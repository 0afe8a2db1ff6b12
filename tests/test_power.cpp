// Tests for the HMC power model.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "power/energy_model.hpp"

namespace coolpim::power {
namespace {

TEST(PowerModelTest, BandwidthProportional) {
  const EnergyParams ep;
  OperatingPoint op;
  op.link_raw = Bandwidth::gbps(480.0);
  op.dram_internal = Bandwidth::gbps(320.0);
  const auto pb = compute_power(ep, op);
  // power = energy/bit * bandwidth (paper Section V-A).
  EXPECT_NEAR(pb.logic_dynamic.value(), 6.78e-12 * 480e9 * 8, 1e-6);
  EXPECT_NEAR(pb.dram_dynamic.value(), 3.7e-12 * 320e9 * 8, 1e-6);
}

TEST(PowerModelTest, FuPowerFormula) {
  // Power(FU) = E * FU_width * PIM_rate with a 128-bit FU (paper III-C).
  const EnergyParams ep;
  OperatingPoint op;
  op.pim_ops_per_sec = 1.3e9;
  const auto pb = compute_power(ep, op);
  EXPECT_NEAR(pb.fu.value(), ep.fu_energy_per_bit.value() * 128.0 * 1.3e9, 1e-9);
  EXPECT_NEAR(fu_op_energy(ep).value(), ep.fu_energy_per_bit.value() * 128.0, 1e-18);
}

TEST(PowerModelTest, IdlePowerIsBackgroundOnly) {
  const EnergyParams ep;
  const auto pb = compute_power(ep, OperatingPoint{});
  EXPECT_DOUBLE_EQ(pb.logic_dynamic.value(), 0.0);
  EXPECT_DOUBLE_EQ(pb.dram_dynamic.value(), 0.0);
  EXPECT_DOUBLE_EQ(pb.fu.value(), 0.0);
  EXPECT_GT(pb.total().value(), 0.0);
  EXPECT_DOUBLE_EQ(pb.total().value(),
                   ep.background_logic.value() + ep.background_dram.value());
}

TEST(PowerModelTest, BreakdownTotalsAreConsistent) {
  const EnergyParams ep;
  OperatingPoint op;
  op.link_raw = Bandwidth::gbps(100);
  op.dram_internal = Bandwidth::gbps(200);
  op.pim_ops_per_sec = 1e9;
  const auto pb = compute_power(ep, op);
  EXPECT_NEAR(pb.total().value(), pb.logic_total().value() + pb.dram_total().value(), 1e-12);
  EXPECT_NEAR(pb.logic_total().value(),
              pb.logic_dynamic.value() + pb.logic_background.value() + pb.fu.value(), 1e-12);
}

TEST(PowerModelTest, HotPhaseEnergyPenalty) {
  // Above 85 C the refresh doubles and leakage grows: energy per bit RISES
  // while throughput falls (the paper's central derating argument).
  const EnergyParams ep;
  OperatingPoint op;
  op.link_raw = Bandwidth::gbps(300);
  op.dram_internal = Bandwidth::gbps(400);
  const auto normal = compute_power(ep, op, 0);
  const auto extended = compute_power(ep, op, 1);
  const auto critical = compute_power(ep, op, 2);
  EXPECT_GT(extended.dram_dynamic.value(), normal.dram_dynamic.value());
  EXPECT_GT(critical.dram_dynamic.value(), extended.dram_dynamic.value());
  EXPECT_GT(extended.dram_background.value(), normal.dram_background.value());
  EXPECT_GT(extended.logic_dynamic.value(), normal.logic_dynamic.value());
}

TEST(PowerModelTest, InvalidInputsThrow) {
  const EnergyParams ep;
  OperatingPoint op;
  op.pim_ops_per_sec = -1.0;
  EXPECT_THROW((void)compute_power(ep, op), ConfigError);
  op.pim_ops_per_sec = 0.0;
  EXPECT_THROW((void)compute_power(ep, op, 3), ConfigError);
  EXPECT_THROW((void)compute_power(ep, op, -1), ConfigError);
}

// Property: total power is monotone in each operating-point component.
class PowerMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PowerMonotone, MonotoneInEachAxis) {
  const EnergyParams ep;
  const int axis = GetParam();
  double prev = -1.0;
  for (double x = 0.0; x <= 5.0; x += 0.5) {
    OperatingPoint op;
    if (axis == 0) op.link_raw = Bandwidth::gbps(100 * x);
    if (axis == 1) op.dram_internal = Bandwidth::gbps(100 * x);
    if (axis == 2) op.pim_ops_per_sec = 1e9 * x;
    const double total = compute_power(ep, op).total().value();
    EXPECT_GE(total, prev);
    prev = total;
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, PowerMonotone, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace coolpim::power
