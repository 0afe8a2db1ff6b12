#include "thermal/floorplan.hpp"

#include <algorithm>
#include <numeric>

namespace coolpim::thermal {

std::size_t Floorplan::vault_center_cell(std::size_t vx, std::size_t vy) const {
  COOLPIM_ASSERT(vx < vaults_x && vy < vaults_y);
  const double fx = (static_cast<double>(vx) + 0.5) / static_cast<double>(vaults_x);
  const double fy = (static_cast<double>(vy) + 0.5) / static_cast<double>(vaults_y);
  const auto cx = std::min(grid.nx - 1, static_cast<std::size_t>(fx * static_cast<double>(grid.nx)));
  const auto cy = std::min(grid.ny - 1, static_cast<std::size_t>(fy * static_cast<double>(grid.ny)));
  return grid.index(cx, cy);
}

void Floorplan::validate() const {
  COOLPIM_REQUIRE(die_width_m > 0 && die_height_m > 0, "die dimensions must be positive");
  COOLPIM_REQUIRE(vaults_x > 0 && vaults_y > 0, "need at least one vault");
  COOLPIM_REQUIRE(grid.nx >= vaults_x && grid.ny >= vaults_y,
                  "grid must resolve individual vaults");
}

void PowerMap::add(const PowerMap& other) {
  COOLPIM_ASSERT(other.watts_.size() == watts_.size());
  for (std::size_t i = 0; i < watts_.size(); ++i) watts_[i] += other.watts_[i];
}

double PowerMap::total() const {
  return std::accumulate(watts_.begin(), watts_.end(), 0.0);
}

void PowerMap::scale(double k) {
  for (auto& w : watts_) w *= k;
}

void PowerMap::clear() { std::fill(watts_.begin(), watts_.end(), 0.0); }

PowerMap uniform_power(const Floorplan& fp, double total_watts) {
  PowerMap map{fp.grid};
  const double per_cell = total_watts / static_cast<double>(fp.grid.cells());
  for (std::size_t i = 0; i < fp.grid.cells(); ++i) map.add(i, per_cell);
  return map;
}

std::vector<std::size_t> vault_center_cells(const Floorplan& fp) {
  std::vector<std::size_t> cells;
  cells.reserve(fp.vault_count());
  for (std::size_t vy = 0; vy < fp.vaults_y; ++vy) {
    for (std::size_t vx = 0; vx < fp.vaults_x; ++vx) cells.push_back(fp.vault_center_cell(vx, vy));
  }
  return cells;
}

PowerMap vault_centered_power(const Floorplan& fp, double total_watts) {
  PowerMap map{fp.grid};
  const double per_vault = total_watts / static_cast<double>(fp.vault_count());
  for (const std::size_t c : vault_center_cells(fp)) map.add(c, per_vault);
  return map;
}

}  // namespace coolpim::thermal
