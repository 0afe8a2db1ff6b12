// Tests for the cooling solutions and fan-power model (paper Table II).
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "power/cooling.hpp"

namespace coolpim::power {
namespace {

TEST(CoolingTest, TableTwoResistances) {
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kPassive).resistance.value(), 4.0);
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kLowEndActive).resistance.value(), 2.0);
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kCommodityServer).resistance.value(), 0.5);
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kHighEndActive).resistance.value(), 0.2);
}

TEST(CoolingTest, TableTwoFanPowerRatios) {
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kPassive).fan_power_rel, 0.0);
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kLowEndActive).fan_power_rel, 1.0);
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kCommodityServer).fan_power_rel, 104.0);
  EXPECT_DOUBLE_EQ(cooling(CoolingType::kHighEndActive).fan_power_rel, 380.0);
}

TEST(CoolingTest, HighEndFanIsAbout13Watts) {
  // Paper Section III-B: the high-end 0.2 C/W plate-fin sink's fan consumes
  // ~13 W, about half the power of a fully-utilized HMC 2.0 cube.
  EXPECT_NEAR(cooling(CoolingType::kHighEndActive).fan_power_watts, 13.0, 0.1);
}

TEST(CoolingTest, ActiveFlag) {
  EXPECT_FALSE(cooling(CoolingType::kPassive).is_active());
  EXPECT_TRUE(cooling(CoolingType::kLowEndActive).is_active());
}

TEST(CoolingTest, AllSolutionsOrdered) {
  const auto& all = all_cooling_solutions();
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i].resistance, all[i - 1].resistance);
    EXPECT_GE(all[i].fan_power_watts, all[i - 1].fan_power_watts);
  }
}

TEST(CoolingTest, FanPowerInterpolationHitsAnchors) {
  EXPECT_NEAR(fan_power_for_resistance(ThermalResistance{2.0}),
              cooling(CoolingType::kLowEndActive).fan_power_watts, 1e-9);
  EXPECT_NEAR(fan_power_for_resistance(ThermalResistance{0.5}),
              cooling(CoolingType::kCommodityServer).fan_power_watts, 1e-9);
  EXPECT_NEAR(fan_power_for_resistance(ThermalResistance{0.2}),
              cooling(CoolingType::kHighEndActive).fan_power_watts, 1e-9);
}

TEST(CoolingTest, FanPowerMonotoneInResistance) {
  double prev = 1e18;
  for (double r = 0.15; r <= 2.0; r += 0.05) {
    const double w = fan_power_for_resistance(ThermalResistance{r});
    EXPECT_LE(w, prev + 1e-12) << "at R=" << r;
    prev = w;
  }
}

TEST(CoolingTest, PassiveRangeCostsNothing) {
  EXPECT_DOUBLE_EQ(fan_power_for_resistance(ThermalResistance{4.0}), 0.0);
  EXPECT_DOUBLE_EQ(fan_power_for_resistance(ThermalResistance{10.0}), 0.0);
  EXPECT_THROW((void)fan_power_for_resistance(ThermalResistance{0.0}), ConfigError);
}

TEST(CoolingTest, RequiredResistanceForFullLoadedPim) {
  // Paper Section III-B: suppressing a full-loaded PIM below 85 C requires
  // R <= 0.27 C/W.  With ~58 W full-load power and 69 C ambient headroom
  // pure lumped-R screening should land near that value given ~twice the
  // average rise at the hotspot.
  const auto r = required_resistance(Watts{58.0}, Celsius{25.0}, Celsius{85.0});
  EXPECT_NEAR(r.value(), 1.03, 0.05);  // average-rise bound (hotspot refines)
  EXPECT_THROW((void)required_resistance(Watts{0.0}, Celsius{25.0}, Celsius{85.0}), ConfigError);
  EXPECT_THROW((void)required_resistance(Watts{10.0}, Celsius{85.0}, Celsius{85.0}), ConfigError);
}

TEST(CoolingTest, PrototypeModuleSolutions) {
  EXPECT_NEAR(prototype_cooling(CoolingType::kPassive).resistance.value(), 1.45, 1e-9);
  EXPECT_NEAR(prototype_cooling(CoolingType::kLowEndActive).resistance.value(), 0.70, 1e-9);
  EXPECT_NEAR(prototype_cooling(CoolingType::kHighEndActive).resistance.value(), 0.49, 1e-9);
  EXPECT_THROW((void)prototype_cooling(CoolingType::kCommodityServer), ConfigError);
}

}  // namespace
}  // namespace coolpim::power
