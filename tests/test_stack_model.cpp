// Tests for the compact 3D-stack thermal solver.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "thermal/stack_model.hpp"

namespace coolpim::thermal {
namespace {

StackSpec small_spec() {
  StackSpec spec;
  spec.floorplan.grid = GridDims{16, 8};
  spec.floorplan.vaults_x = 4;
  spec.floorplan.vaults_y = 2;
  spec.layers.resize(3);
  spec.layers[0].name = "logic";
  spec.layers[1].name = "dram0";
  spec.layers[2].name = "dram1";
  // Small sink mass so transient tests converge quickly (the HMC-level model
  // uses a boundary-condition sink for the same reason).
  spec.sink_heat_capacity = 0.05;
  return spec;
}

TEST(StackModelTest, StartsAtAmbient) {
  StackModel model{small_spec()};
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    EXPECT_NEAR(model.layer_peak(l).value(), 25.0, 1e-9);
  }
  EXPECT_NEAR(model.sink_temp().value(), 25.0, 1e-9);
}

TEST(StackModelTest, SteadyStateAboveAmbientWithPower) {
  StackModel model{small_spec()};
  model.set_layer_power(0, uniform_power(model.spec().floorplan, 20.0));
  model.solve_steady();
  EXPECT_GT(model.layer_peak(0).value(), 30.0);
  EXPECT_GT(model.sink_temp().value(), 25.0);
}

TEST(StackModelTest, PowerSourceLayerIsHottest) {
  StackModel model{small_spec()};
  model.set_layer_power(0, uniform_power(model.spec().floorplan, 20.0));
  model.solve_steady();
  // Heat flows bottom (logic) -> top (sink): monotone decreasing temps.
  EXPECT_GT(model.layer_mean(0).value(), model.layer_mean(1).value());
  EXPECT_GT(model.layer_mean(1).value(), model.layer_mean(2).value());
  EXPECT_GT(model.layer_mean(2).value(), model.sink_temp().value());
}

TEST(StackModelTest, ApproximateLinearityInPower) {
  StackModel model{small_spec()};
  const auto fp = model.spec().floorplan;
  model.set_layer_power(0, uniform_power(fp, 10.0));
  model.solve_steady();
  const double rise1 = model.layer_peak(0).value() - 25.0;
  model.set_layer_power(0, uniform_power(fp, 20.0));
  model.solve_steady();
  const double rise2 = model.layer_peak(0).value() - 25.0;
  EXPECT_NEAR(rise2, 2.0 * rise1, 0.02 * rise2);
}

TEST(StackModelTest, TransientConvergesToSteady) {
  StackModel a{small_spec()};
  StackModel b{small_spec()};
  const PowerMap p = uniform_power(a.spec().floorplan, 15.0);
  a.set_layer_power(0, p);
  a.solve_steady();
  b.set_layer_power(0, p);
  for (int i = 0; i < 20000; ++i) b.step(Time::us(50));
  EXPECT_NEAR(b.layer_peak(0).value(), a.layer_peak(0).value(), 0.3);
  EXPECT_NEAR(b.sink_temp().value(), a.sink_temp().value(), 0.3);
}

TEST(StackModelTest, ConcentratedPowerMakesHotterPeak) {
  StackModel uniform_model{small_spec()};
  StackModel hotspot_model{small_spec()};
  const auto fp = uniform_model.spec().floorplan;
  uniform_model.set_layer_power(0, uniform_power(fp, 20.0));
  hotspot_model.set_layer_power(0, vault_centered_power(fp, 20.0));
  uniform_model.solve_steady();
  hotspot_model.solve_steady();
  EXPECT_GT(hotspot_model.layer_peak(0).value(), uniform_model.layer_peak(0).value());
}

TEST(StackModelTest, BetterSinkMeansCooler) {
  StackSpec spec = small_spec();
  spec.sink_r = ThermalResistance{4.0};
  StackModel passive{spec};
  spec.sink_r = ThermalResistance{0.2};
  StackModel highend{spec};
  const PowerMap p = uniform_power(spec.floorplan, 16.0);
  passive.set_layer_power(0, p);
  highend.set_layer_power(0, p);
  passive.solve_steady();
  highend.solve_steady();
  EXPECT_GT(passive.layer_peak(0).value(), highend.layer_peak(0).value() + 20.0);
}

TEST(StackModelTest, CoHeaterWarmsTheSink) {
  StackSpec spec = small_spec();
  StackModel without{spec};
  spec.co_heater_watts = 20.0;
  StackModel with{spec};
  without.solve_steady();
  with.solve_steady();
  EXPECT_GT(with.sink_temp().value(), without.sink_temp().value() + 5.0);
  EXPECT_GT(with.layer_peak(0).value(), without.layer_peak(0).value() + 5.0);
}

TEST(StackModelTest, ResetRestoresAmbient) {
  StackModel model{small_spec()};
  model.set_layer_power(0, uniform_power(model.spec().floorplan, 20.0));
  model.solve_steady();
  model.reset_to_ambient();
  EXPECT_NEAR(model.layer_peak(0).value(), 25.0, 1e-9);
}

TEST(StackModelTest, SurfaceBetweenTopDieAndSink) {
  StackModel model{small_spec()};
  model.set_layer_power(0, uniform_power(model.spec().floorplan, 20.0));
  model.solve_steady();
  const double top = model.layer_mean(model.layer_count() - 1).value();
  const double sink = model.sink_temp().value();
  const double surface = model.surface_temp().value();
  EXPECT_LE(surface, top + 1e-9);
  EXPECT_GE(surface, sink - 1e-9);
}

TEST(StackModelTest, LayerFieldShape) {
  StackModel model{small_spec()};
  const auto field = model.layer_field(0);
  EXPECT_EQ(field.size(), model.cells_per_layer());
}

TEST(StackModelTest, InvalidSpecsThrow) {
  StackSpec spec = small_spec();
  spec.layers.clear();
  EXPECT_THROW(StackModel{spec}, ConfigError);
  spec = small_spec();
  spec.sink_r = ThermalResistance{0.0};
  EXPECT_THROW(StackModel{spec}, ConfigError);
  spec = small_spec();
  spec.layers[0].thickness_m = -1.0;
  EXPECT_THROW(StackModel{spec}, ConfigError);
}

TEST(StackModelTest, StableStepPositive) {
  StackModel model{small_spec()};
  EXPECT_GT(model.stable_step(), Time::zero());
  EXPECT_THROW(model.step(Time::zero()), ConfigError);
}

}  // namespace
}  // namespace coolpim::thermal
