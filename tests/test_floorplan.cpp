// Tests for the die floorplan and power-map builders.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "thermal/floorplan.hpp"

namespace coolpim::thermal {
namespace {

TEST(FloorplanTest, DefaultsMatchHmc) {
  const Floorplan fp;
  EXPECT_EQ(fp.vault_count(), 32u);
  EXPECT_NEAR(fp.die_area_m2() * 1e6, 68.16, 0.5);  // ~68 mm^2 (paper V-A)
  EXPECT_EQ(fp.grid.cells(), 32u * 16u);
  EXPECT_NO_THROW(fp.validate());
}

TEST(FloorplanTest, VaultCentersInsideGrid) {
  const Floorplan fp;
  for (std::size_t vy = 0; vy < fp.vaults_y; ++vy) {
    for (std::size_t vx = 0; vx < fp.vaults_x; ++vx) {
      EXPECT_LT(fp.vault_center_cell(vx, vy), fp.grid.cells());
    }
  }
  // Distinct vaults map to distinct cells at this resolution.
  EXPECT_NE(fp.vault_center_cell(0, 0), fp.vault_center_cell(1, 0));
}

TEST(FloorplanTest, InvalidConfigsThrow) {
  Floorplan fp;
  fp.grid.nx = 4;  // cannot resolve 8 vaults in x
  EXPECT_THROW(fp.validate(), ConfigError);
}

TEST(PowerMapTest, UniformConservesTotal) {
  const Floorplan fp;
  const PowerMap map = uniform_power(fp, 12.5);
  EXPECT_NEAR(map.total(), 12.5, 1e-9);
  // Every cell identical.
  for (std::size_t c = 1; c < fp.grid.cells(); ++c) {
    EXPECT_DOUBLE_EQ(map.at(c), map.at(0));
  }
}

TEST(PowerMapTest, VaultCenteredConservesTotalAndConcentrates) {
  const Floorplan fp;
  const PowerMap map = vault_centered_power(fp, 26.0);
  EXPECT_NEAR(map.total(), 26.0, 1e-9);
  // Exactly vault_count cells carry power.
  std::size_t hot = 0;
  for (std::size_t c = 0; c < fp.grid.cells(); ++c) {
    if (map.at(c) > 0.0) ++hot;
  }
  EXPECT_EQ(hot, fp.vault_count());
}

TEST(PowerMapTest, AddAndScale) {
  const Floorplan fp;
  PowerMap map = uniform_power(fp, 10.0);
  map.add(uniform_power(fp, 5.0));
  EXPECT_NEAR(map.total(), 15.0, 1e-9);
  map.scale(2.0);
  EXPECT_NEAR(map.total(), 30.0, 1e-9);
  map.clear();
  EXPECT_DOUBLE_EQ(map.total(), 0.0);
}

}  // namespace
}  // namespace coolpim::thermal
