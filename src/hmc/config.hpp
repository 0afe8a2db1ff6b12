// HMC device configuration (paper Table IV and the HMC 1.1 / 2.0 specs).
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"

namespace coolpim::hmc {

/// DRAM timing parameters (paper Table IV, from [Kim+, PACT'13]).
struct DramTiming {
  Time tCL{Time::ns(13.75)};
  Time tRCD{Time::ns(13.75)};
  Time tRP{Time::ns(13.75)};
  Time tRAS{Time::ns(27.5)};

  /// Closed-page bank cycle: the precharge overlaps tRAS restoration, so a
  /// bank is reusable after tRAS + tRP.
  [[nodiscard]] Time bank_cycle() const { return tRAS + tRP; }
};

struct HmcConfig {
  std::string name{"HMC 2.0"};
  std::uint64_t capacity_bytes{8ULL << 30};
  std::size_t dram_dies{8};
  std::size_t vaults{32};
  std::size_t banks{512};  // total across the cube
  std::size_t links{4};
  Bandwidth link_raw_per_link{Bandwidth::gbps(120.0)};   // aggregate both directions
  Bandwidth link_data_per_link{Bandwidth::gbps(80.0)};   // payload after headers
  DramTiming timing{};
  bool pim_capable{true};
  /// Internal TSV/DRAM array bandwidth ceiling at nominal frequency
  /// (aggregate of 32 vaults; comfortably above the off-chip links, which is
  /// why PIM can push internal utilization past the external maximum).
  Bandwidth internal_peak{Bandwidth::gbps(1024.0)};
  /// DRAM block transferred per bank access (read or write), bytes.
  std::size_t access_granularity{64};
  /// Row-buffer management: false = closed page (HMC default), true = open
  /// page (ablation option; see hmc/bank.hpp).
  bool open_page{false};
  /// DRAM row size for row-hit detection under open page.
  std::size_t row_bytes{2048};

  [[nodiscard]] std::size_t banks_per_vault() const { return banks / vaults; }
  [[nodiscard]] Bandwidth link_raw_total() const {
    return link_raw_per_link * static_cast<double>(links);
  }

  void validate() const {
    COOLPIM_REQUIRE(vaults > 0 && banks % vaults == 0, "banks must divide evenly into vaults");
    COOLPIM_REQUIRE(links > 0, "need at least one link");
    COOLPIM_REQUIRE(dram_dies > 0, "need at least one DRAM die");
    COOLPIM_REQUIRE(access_granularity > 0, "access granularity must be positive");
  }
};

/// HMC 2.0, 8 GB cube: 1 logic die + 8 DRAM dies, 32 vaults, 512 banks,
/// 4 links at 120 GB/s raw (80 GB/s data) each => 480/320 GB/s totals.
[[nodiscard]] inline HmcConfig hmc20_config() { return HmcConfig{}; }

/// HMC 1.1, 4 GB cube on the AC-510 module: 4 DRAM dies, 16 vaults, two
/// half-width links totalling 60 GB/s data; no PIM.
[[nodiscard]] inline HmcConfig hmc11_config() {
  HmcConfig cfg;
  cfg.name = "HMC 1.1";
  cfg.capacity_bytes = 4ULL << 30;
  cfg.dram_dies = 4;
  cfg.vaults = 16;
  cfg.banks = 256;
  cfg.links = 2;
  cfg.link_raw_per_link = Bandwidth::gbps(45.0);
  cfg.link_data_per_link = Bandwidth::gbps(30.0);
  cfg.pim_capable = false;
  cfg.internal_peak = Bandwidth::gbps(256.0);
  return cfg;
}

}  // namespace coolpim::hmc
