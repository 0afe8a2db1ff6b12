// Die floorplan: vault layout and power-map construction.
//
// An HMC die is partitioned into functionally independent vaults (16 in
// HMC 1.1, 32 in HMC 2.0).  Each vault's controller and PIM functional unit
// sit at the vault center of the logic die, which is why the measured hot
// spots appear at vault centers (paper Fig. 3).  A PowerMap assigns watts to
// grid cells; builders below produce the distributions used by the models.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace coolpim::thermal {

/// Discretization of one die into nx * ny cells.
struct GridDims {
  std::size_t nx{32};
  std::size_t ny{16};

  [[nodiscard]] std::size_t cells() const { return nx * ny; }
  [[nodiscard]] std::size_t index(std::size_t x, std::size_t y) const {
    COOLPIM_ASSERT(x < nx && y < ny);
    return y * nx + x;
  }
};

/// Physical floorplan of one die.
struct Floorplan {
  double die_width_m{9.6e-3};    // 9.6 mm x 7.1 mm ~= 68 mm^2 (paper, HMC 1.1)
  double die_height_m{7.1e-3};
  std::size_t vaults_x{8};       // vault array; 8x4 = 32 vaults for HMC 2.0
  std::size_t vaults_y{4};
  GridDims grid{};

  [[nodiscard]] std::size_t vault_count() const { return vaults_x * vaults_y; }
  [[nodiscard]] double die_area_m2() const { return die_width_m * die_height_m; }
  [[nodiscard]] double cell_width_m() const {
    return die_width_m / static_cast<double>(grid.nx);
  }
  [[nodiscard]] double cell_height_m() const {
    return die_height_m / static_cast<double>(grid.ny);
  }
  [[nodiscard]] double cell_area_m2() const { return cell_width_m() * cell_height_m(); }

  /// Grid cell containing the center of vault (vx, vy).
  [[nodiscard]] std::size_t vault_center_cell(std::size_t vx, std::size_t vy) const;

  void validate() const;
};

/// Per-cell power assignment (watts) on one die.
class PowerMap {
 public:
  explicit PowerMap(const GridDims& dims) : dims_{dims}, watts_(dims.cells(), 0.0) {}

  void add(std::size_t cell, double watts) {
    COOLPIM_ASSERT(cell < watts_.size());
    watts_[cell] += watts;
  }
  void add(const PowerMap& other);

  [[nodiscard]] double at(std::size_t cell) const { return watts_.at(cell); }
  [[nodiscard]] double total() const;
  [[nodiscard]] const std::vector<double>& cells() const { return watts_; }
  [[nodiscard]] const GridDims& dims() const { return dims_; }

  void scale(double k);
  void clear();

 private:
  GridDims dims_;
  std::vector<double> watts_;
};

/// Spread `total_watts` uniformly over the die.
[[nodiscard]] PowerMap uniform_power(const Floorplan& fp, double total_watts);

/// Every vault's center cell, vaults row-major.
[[nodiscard]] std::vector<std::size_t> vault_center_cells(const Floorplan& fp);

/// Concentrate `total_watts` equally at every vault center.  Vault
/// controllers + PIM FUs produce exactly this pattern on the logic die.
[[nodiscard]] PowerMap vault_centered_power(const Floorplan& fp, double total_watts);

}  // namespace coolpim::thermal
