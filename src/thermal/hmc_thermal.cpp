#include "thermal/hmc_thermal.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/names.hpp"
#include "thermal/materials.hpp"

namespace coolpim::thermal {

HmcThermalConfig hmc20_thermal_config(power::CoolingType cooling) {
  HmcThermalConfig cfg;
  cfg.cooling = power::cooling(cooling);
  return cfg;
}

HmcThermalConfig hmc11_thermal_config(power::CoolingType cooling, double fpga_watts) {
  HmcThermalConfig cfg;
  cfg.dram_dies = 4;
  cfg.floorplan.vaults_x = 4;
  cfg.floorplan.vaults_y = 4;
  cfg.cooling = power::prototype_cooling(cooling);
  cfg.co_heater_watts = fpga_watts;
  return cfg;
}

namespace {

StackSpec build_stack_spec(const HmcThermalConfig& cfg) {
  StackSpec spec;
  spec.floorplan = cfg.floorplan;
  spec.layers.reserve(cfg.dram_dies + 1);

  LayerSpec logic;
  logic.name = "logic";
  logic.thickness_m = StackGeometry::die_thickness;
  logic.conductivity = Conductivity::silicon;
  logic.volumetric_heat_capacity = HeatCapacity::silicon * cfg.heat_capacity_scale;
  logic.interface_r_above = cfg.interface_r;
  spec.layers.push_back(logic);

  for (std::size_t i = 0; i < cfg.dram_dies; ++i) {
    LayerSpec dram;
    dram.name = "dram" + std::to_string(i);
    dram.thickness_m = StackGeometry::die_thickness;
    dram.conductivity = Conductivity::silicon;
    dram.volumetric_heat_capacity = HeatCapacity::silicon * cfg.heat_capacity_scale;
    dram.interface_r_above = cfg.interface_r;
    spec.layers.push_back(dram);
  }

  spec.tim_r = cfg.tim_r;
  spec.sink_r = cfg.cooling.resistance;
  spec.sink_heat_capacity = cfg.sink_heat_capacity;
  spec.board_r = 20.0;
  spec.ambient = cfg.ambient;
  spec.co_heater_watts = cfg.co_heater_watts;
  return spec;
}

/// A spatial power pattern.
enum class Pattern { kLogicUniform, kVaultCentred, kDramUniform, kSink };

struct PatternPower {
  Pattern pattern;
  double watts;
};

constexpr std::size_t kPowerSources = 5;

/// How a breakdown lands on the stack: every power source heats one fixed
/// pattern.  The logic die's SerDes/PLL background spreads over the die (the
/// PHY quads occupy most of it); its switching power and the PIM FUs sit at
/// vault centres; DRAM dynamic + background spreads uniformly over all DRAM
/// dies; a co-packaged component heats the sink node.
std::array<PatternPower, kPowerSources> power_layout(const HmcThermalConfig& cfg,
                                                     const power::PowerBreakdown& power) {
  return {{{Pattern::kLogicUniform, power.logic_background.value()},
           {Pattern::kVaultCentred, power.logic_dynamic.value()},
           {Pattern::kVaultCentred, power.fu.value()},
           {Pattern::kDramUniform, power.dram_dynamic.value() + power.dram_background.value()},
           {Pattern::kSink, cfg.co_heater_watts}}};
}

/// row += uniform_power(fp, watts) as a row of cells.  PowerMap adds
/// 0.0 + w per cell first; that is w here, since the rows start at +0.0 and
/// so never hold -0.0.
void add_uniform(std::span<double> row, double watts) {
  const double per_cell = watts / static_cast<double>(row.size());
  for (double& w : row) w += per_cell;
}

/// row += vault_centered_power(fp, watts) over the vault `centres`: built in
/// the zeroed `pattern` row and then added, as PowerMap does, so the sums
/// keep their association where two vaults share a center cell.
void add_vault_centred(std::span<double> row, std::span<double> pattern,
                       std::span<const std::size_t> centres, double watts) {
  std::fill(pattern.begin(), pattern.end(), 0.0);
  const double per_vault = watts / static_cast<double>(centres.size());
  for (const std::size_t c : centres) pattern[c] += per_vault;
  for (std::size_t i = 0; i < row.size(); ++i) row[i] += pattern[i];
}

/// Set the stack's layer power from a layout: logic patterns on layer 0, the
/// DRAM pattern split evenly over layers 1..N.  The sink pattern is no layer
/// power; the stack takes it from StackSpec::co_heater_watts.  The watts are
/// bit-identical to summing one PowerMap per pattern, in layout order, and
/// nothing is allocated.
void set_layout_power(StackModel& stack, std::span<const PatternPower> layout,
                      detail::LayoutRows& rows) {
  const std::size_t dram_dies = stack.layer_count() - 1;
  std::fill(rows.logic_w.begin(), rows.logic_w.end(), 0.0);
  std::fill(rows.dram_w.begin(), rows.dram_w.end(), 0.0);
  for (const auto& [pattern, watts] : layout) {
    switch (pattern) {
      case Pattern::kLogicUniform:
        add_uniform(rows.logic_w, watts);
        break;
      case Pattern::kVaultCentred:
        add_vault_centred(rows.logic_w, rows.pattern_w, rows.centre_cells, watts);
        break;
      case Pattern::kDramUniform:
        add_uniform(rows.dram_w, watts / static_cast<double>(dram_dies));
        break;
      case Pattern::kSink:
        break;
    }
  }
  stack.set_layer_power(0, rows.logic_w);
  for (std::size_t l = 1; l <= dram_dies; ++l) stack.set_layer_power(l, rows.dram_w);
}

/// The distinct patterns superposition needs for `cfg`, in layout order:
/// logic dynamic and FU share one, and the sink's is needed only when the
/// config has a co-heater.
std::vector<Pattern> response_patterns(const HmcThermalConfig& cfg) {
  std::vector<Pattern> patterns;
  for (const auto& [p, watts] : power_layout(cfg, power::PowerBreakdown{})) {
    if (p == Pattern::kSink && cfg.co_heater_watts <= 0.0) continue;
    if (std::find(patterns.begin(), patterns.end(), p) == patterns.end()) patterns.push_back(p);
  }
  return patterns;
}

/// SOR from zero rise: ambient 0 K makes the solved field the rise itself.
/// Heat capacities, ambient and co-heater watts of `spec` do not matter.
UnitResponse solve_unit_response(StackSpec spec, Pattern pattern) {
  spec.ambient = Celsius::from_kelvin(0.0);
  spec.co_heater_watts = pattern == Pattern::kSink ? 1.0 : 0.0;
  detail::LayoutRows rows{spec.floorplan};
  StackModel stack{std::move(spec)};
  const PatternPower unit{pattern, 1.0};
  set_layout_power(stack, std::span<const PatternPower>{&unit, 1}, rows);
  UnitResponse r;
  r.sor_iterations = stack.solve_steady(1e-9, 200000, SteadyStart::kCold);
  const auto rise = stack.temperatures_k();
  r.node_k_per_w.assign(rise.begin(), rise.end());
  r.sink_k_per_w = stack.sink_temp().as_kelvin();
  return r;
}

/// Process-wide unit responses.  The key holds every StackSpec field the
/// steady state depends on -- the floorplan, each layer's thickness,
/// conductivity and interface resistance, and the TIM, sink and board
/// resistances -- plus the pattern.
/// Ambient and co-heater watts are coefficients, and heat capacities do not
/// enter the steady state, so none of them is a key field; responses are
/// therefore bit-identical whichever run fills them.  The mutex is held
/// across the fill, so each key is solved once; references to the map's
/// values survive rehashing.
class ResponseCache {
 public:
  const UnitResponse& get(const StackSpec& spec, Pattern pattern) {
    const std::lock_guard lock{mu_};
    Key k = key(spec, pattern);
    auto it = responses_.find(k);
    if (it == responses_.end()) {
      it = responses_.emplace(std::move(k), solve_unit_response(spec, pattern)).first;
    }
    return it->second;
  }

 private:
  using Key = std::vector<double>;

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      HashStream h;
      for (const double v : k) h.add(v);
      return static_cast<std::size_t>(h.digest());
    }
  };

  static Key key(const StackSpec& spec, Pattern pattern) {
    const Floorplan& fp = spec.floorplan;
    Key k{fp.die_width_m,
          fp.die_height_m,
          static_cast<double>(fp.vaults_x),
          static_cast<double>(fp.vaults_y),
          static_cast<double>(fp.grid.nx),
          static_cast<double>(fp.grid.ny),
          spec.tim_r,
          spec.sink_r.value(),
          spec.board_r,
          static_cast<double>(pattern),
          static_cast<double>(spec.layers.size())};
    for (const LayerSpec& l : spec.layers) {
      k.insert(k.end(), {l.thickness_m, l.conductivity, l.interface_r_above});
    }
    return k;
  }

  std::mutex mu_;
  std::unordered_map<Key, UnitResponse, KeyHash> responses_;
};

ResponseCache& response_cache() {
  static ResponseCache cache;
  return cache;
}

}  // namespace

std::vector<UnitResponse> solve_unit_responses(const HmcThermalConfig& cfg) {
  const StackSpec spec = build_stack_spec(cfg);
  std::vector<UnitResponse> out;
  for (const Pattern p : response_patterns(cfg)) out.push_back(solve_unit_response(spec, p));
  return out;
}

namespace detail {

LayoutRows::LayoutRows(const Floorplan& fp)
    : logic_w(fp.grid.cells()),
      dram_w(fp.grid.cells()),
      pattern_w(fp.grid.cells()),
      centre_cells{vault_center_cells(fp)} {}

}  // namespace detail

HmcThermalModel::HmcThermalModel(HmcThermalConfig cfg)
    : cfg_{std::move(cfg)},
      stack_{build_stack_spec(cfg_)},
      rows_{cfg_.floorplan} {
  COOLPIM_REQUIRE(cfg_.dram_dies >= 1, "HMC needs at least one DRAM die");
}

void HmcThermalModel::apply_power(const power::PowerBreakdown& power) {
  power_ = power;
  set_layout_power(stack_, power_layout(cfg_, power), rows_);
}

void HmcThermalModel::solve_steady() {
  const auto layout = power_layout(cfg_, power_);
  if (responses_.empty()) {
    const std::vector<Pattern> patterns = response_patterns(cfg_);
    for (const Pattern p : patterns) responses_.push_back(&response_cache().get(stack_.spec(), p));
    source_response_.assign(kPowerSources, kNoResponse);
    for (std::size_t s = 0; s < kPowerSources; ++s) {
      const auto it = std::find(patterns.begin(), patterns.end(), layout[s].pattern);
      if (it == patterns.end()) continue;
      source_response_[s] = static_cast<std::size_t>(it - patterns.begin());
    }
    steady_k_.assign(stack_.node_count(), 0.0);
  }

  // Sources sharing a pattern (logic dynamic and FU) add up.
  std::array<double, kPowerSources> coef{};
  for (std::size_t s = 0; s < kPowerSources; ++s) {
    if (source_response_[s] != kNoResponse) coef[source_response_[s]] += layout[s].watts;
  }

  const double ambient_k = cfg_.ambient.as_kelvin();
  std::fill(steady_k_.begin(), steady_k_.end(), ambient_k);
  double sink_k = ambient_k;
  for (std::size_t r = 0; r < responses_.size(); ++r) {
    const double c = coef[r];
    const double* rise = responses_[r]->node_k_per_w.data();
    for (std::size_t i = 0; i < steady_k_.size(); ++i) steady_k_[i] += c * rise[i];
    sink_k += c * responses_[r]->sink_k_per_w;
  }
  stack_.set_temperatures(steady_k_, sink_k);
  count_steady_solve(0);
}

std::size_t HmcThermalModel::solve_steady(SteadyStart start) {
  const std::size_t iters = stack_.solve_steady(1e-4, 200000, start);
  count_steady_solve(iters);
  return iters;
}

void HmcThermalModel::count_steady_solve(std::size_t sor_iterations) {
  if (counters_ != nullptr) {
    counters_->counter(obs::names::kThermalSteadySolves).add();
    counters_->counter(obs::names::kThermalSteadyIterations).add(sor_iterations);
  }
}

void HmcThermalModel::step(Time dt) {
  stack_.step(dt);
  const Time began = clock_;
  clock_ = clock_ + dt;

  // One reduction pass per step: peak_dram/peak_logic are read here once and
  // the same values feed both the counter gauges and the trace sink.
  const double dram_c = peak_dram().value();
  const double logic_c = peak_logic().value();
  const bool above = dram_c >= warn_limit_.value();
  const bool crossed = above != above_limit_;
  above_limit_ = above;

  if (counters_ != nullptr) {
    counters_->counter(obs::names::kThermalSteps).add();
    if (crossed) counters_->counter(obs::names::kThermalWarningCrossings).add();
    counters_->gauge(obs::names::kThermalPeakDramC).set(dram_c);
    counters_->gauge(obs::names::kThermalPeakLogicC).set(logic_c);
  }
  if (trace_.enabled()) {
    trace_.complete(began, dt, obs::names::kCatThermal, "step", {{"peak_dram_c", dram_c}});
    trace_.counter(clock_, obs::names::kCatThermal, "peak_dram_c", dram_c);
    trace_.counter(clock_, obs::names::kCatThermal, "peak_logic_c", logic_c);
    if (crossed) {
      obs::TraceArgs args;
      args.emplace_back("direction", above ? "rising" : "falling");
      args.emplace_back("limit_c", warn_limit_.value());
      for (std::size_t l = 1; l <= cfg_.dram_dies; ++l) {
        args.emplace_back("dram" + std::to_string(l - 1) + "_c", stack_.layer_peak(l).value());
      }
      trace_.instant(clock_, obs::names::kCatThermal, "warning_crossing", std::move(args));
    }
  }
}

void HmcThermalModel::reset() {
  stack_.reset_to_ambient();
  above_limit_ = false;
}

Celsius HmcThermalModel::peak_dram() const {
  return stack_.peak_over_layers(1, cfg_.dram_dies);
}

Celsius HmcThermalModel::peak_logic() const { return stack_.layer_peak(0); }

Celsius HmcThermalModel::estimate_die_from_surface(Celsius surface, Watts power) {
  // Paper Section III-A: in-package junction runs ~5-10 C above the package
  // surface given ~20 W to dissipate; scale linearly with power.
  const double rise = 7.5 * power.value() / 20.0;
  return surface + rise;
}

}  // namespace coolpim::thermal
