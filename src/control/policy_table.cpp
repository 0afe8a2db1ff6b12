#include "control/policy_table.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/names.hpp"

namespace coolpim::control {

double PolicyTable::lookup(double temp_c, bool* clamped) const {
  const double offset = (temp_c - t_min_c) / bin_width_c;
  if (clamped != nullptr) {
    *clamped = offset < 0.0 || offset >= static_cast<double>(allow.size());
  }
  if (offset < 0.0) return allow.front();
  const auto bin = static_cast<std::size_t>(offset);
  if (bin >= allow.size()) return allow.back();
  return allow[bin];
}

void PolicyTable::validate() const {
  COOLPIM_REQUIRE(!allow.empty(), "policy table must have at least one bin");
  COOLPIM_REQUIRE(bin_width_c > 0.0, "policy table bin width must be positive");
  for (const double a : allow) {
    COOLPIM_REQUIRE(a > 0.0 && a <= 1.0, "policy table entries must be in (0, 1]");
  }
}

PolicyTable default_policy_table() { return PolicyTable{}; }

PolicyTable load_policy_table(const std::string& path) {
  std::ifstream in{path};
  COOLPIM_REQUIRE(in.good(), "cannot open policy table '" + path + "'");
  PolicyTable table;
  table.allow.clear();
  std::vector<double> temps;
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream ls{line.substr(start)};
    std::string temp_field, allow_field;
    COOLPIM_REQUIRE(std::getline(ls, temp_field, ',') && std::getline(ls, allow_field),
                    "policy table '" + path + "': expected 'temp_c,allow' rows");
    try {
      temps.push_back(std::stod(temp_field));
      table.allow.push_back(std::stod(allow_field));
    } catch (const std::exception&) {
      throw ConfigError("policy table '" + path + "': malformed number in '" + line + "'");
    }
  }
  COOLPIM_REQUIRE(!temps.empty(), "policy table '" + path + "' has no data rows");
  table.t_min_c = temps.front();
  if (temps.size() > 1) {
    table.bin_width_c = temps[1] - temps[0];
    for (std::size_t i = 1; i < temps.size(); ++i) {
      const double width = temps[i] - temps[i - 1];
      COOLPIM_REQUIRE(std::abs(width - table.bin_width_c) < 1e-9 * std::max(1.0, table.bin_width_c),
                      "policy table '" + path + "': temperatures must be uniformly spaced");
    }
  }
  table.validate();
  return table;
}

TablePolicy::TablePolicy(const PolicyTableConfig& cfg)
    : cfg_{cfg}, coalesce_{cfg.settle_window} {
  cfg_.table.validate();
  COOLPIM_REQUIRE(cfg_.floor > 0.0 && cfg_.floor <= 1.0, "table floor must be in (0, 1]");
  COOLPIM_REQUIRE(cfg_.reduction_step > 0.0 && cfg_.reduction_step < 1.0,
                  "table reduction step must be in (0, 1)");
}

std::uint32_t TablePolicy::throttle_level() const {
  return static_cast<std::uint32_t>(std::lround((1.0 - effective_allow()) * 1000.0));
}

std::uint32_t TablePolicy::saturation_level() const {
  return static_cast<std::uint32_t>(std::lround((1.0 - cfg_.floor) * 1000.0));
}

void TablePolicy::on_epoch(const Reading& reading, Time now) {
  const std::uint32_t before = throttle_level();
  bool clamped = false;
  target_ = cfg_.table.lookup(reading.sensed.value(), &clamped);
  if (counters_ != nullptr && clamped) {
    counters_->counter(obs::names::kControlTableClamps).add();
  }
  const std::uint32_t after = throttle_level();
  if (after != before) {
    ++adjustments_;
    if (counters_ != nullptr) {
      counters_->counter(obs::names::kControlLevelChanges).add();
      counters_->gauge(obs::names::kControlThrottleLevel).set(static_cast<double>(after));
    }
    if (trace_.enabled()) {
      trace_.instant(now, obs::names::kCatControl, "table_level",
                     {{"from", before}, {"to", after}});
    }
  }
}

void TablePolicy::on_thermal_warning(Time now, Time raised_at) {
  if (coalesce_.stale(raised_at)) return;
  coalesce_.mark(raised_at);
  const double before = effective_allow();
  cap_ = std::max(cfg_.floor, before * (1.0 - cfg_.reduction_step));
  ++adjustments_;
  if (trace_.enabled()) {
    trace_.instant(now, obs::names::kCatControl, "table_warning_cap",
                   {{"from", before}, {"to", effective_allow()}});
  }
}

void TablePolicy::on_watchdog_engage(Time now) {
  // Shared fail-safe contract: halve the effective allowance (not just the
  // cap -- the table target may already sit below it), bypassing coalescing.
  const double before = effective_allow();
  cap_ = halved_fraction(before, cfg_.floor);
  coalesce_.mark(now);
  ++adjustments_;
  if (trace_.enabled()) {
    trace_.instant(now, obs::names::kCatControl, "table_watchdog_cap",
                   {{"from", before}, {"to", effective_allow()}});
  }
}

}  // namespace coolpim::control
