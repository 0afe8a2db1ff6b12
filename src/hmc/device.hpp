// Event-detailed HMC device model.
//
// Models the full request path: link serialization (request FLITs at the link
// FLIT rate), crossbar traversal, vault/bank service, and response
// serialization.  Responses carry the ERRSTAT thermal-warning bit whenever
// the device is above its warning threshold, which is the feedback signal
// CoolPIM's source throttling consumes.
//
// This is the high-fidelity model used for latency/bandwidth
// micro-experiments and tests; millisecond-scale full-system runs use
// hmc::ThroughputModel (see DESIGN.md section 5).
#pragma once

#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "hmc/config.hpp"
#include "hmc/packet.hpp"
#include "hmc/thermal_policy.hpp"
#include "hmc/vault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace coolpim::hmc {

/// Address -> (vault, bank, row) mapping.  The default interleaves 64-byte
/// blocks across vaults (HMC default: sequential traffic spreads maximally);
/// a larger `interleave_bytes` keeps more of a stream in one vault (ablation
/// option for the open-page policy).
struct AddressMap {
  std::size_t vaults;
  std::size_t banks_per_vault;
  std::size_t interleave_bytes{64};
  std::size_t row_bytes{2048};

  struct Location {
    std::size_t vault;
    std::size_t bank;
    std::uint64_t row;
  };

  [[nodiscard]] Location locate(std::uint64_t address) const {
    const std::uint64_t block = address / interleave_bytes;
    const auto vault = static_cast<std::size_t>(block % vaults);
    const auto bank = static_cast<std::size_t>((block / vaults) % banks_per_vault);
    // Row id within the bank: the address bits above the bank selection.
    const std::uint64_t row = block / (vaults * banks_per_vault) * interleave_bytes / row_bytes;
    return {vault, bank, row};
  }
};

class Device {
 public:
  using ResponseCallback = std::function<void(const Response&)>;

  Device(sim::Simulation& sim, HmcConfig cfg, ThermalPolicy policy = {});

  /// Submit a request; the callback fires when the response arrives back at
  /// the host.  Throws SimError if the device is shut down.
  void submit(const Request& req, ResponseCallback on_response);

  /// Thermal coupling: the system updates the DRAM temperature each epoch.
  void set_dram_temperature(Celsius t);
  [[nodiscard]] ThermalPhase phase() const { return policy_.phase(dram_temp_); }
  [[nodiscard]] bool warning_active() const { return policy_.warning(dram_temp_); }
  [[nodiscard]] bool is_shut_down() const { return shut_down_; }

  [[nodiscard]] const HmcConfig& config() const { return cfg_; }
  [[nodiscard]] const ThermalPolicy& policy() const { return policy_; }
  [[nodiscard]] const StatSet& stats() const { return stats_; }
  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] const Vault& vault(std::size_t i) const { return vaults_.at(i); }

  /// FLITs moved so far (request + response), for bandwidth accounting.
  [[nodiscard]] std::uint64_t total_flits() const { return total_flits_; }
  /// Payload bytes delivered so far.
  [[nodiscard]] std::uint64_t total_payload_bytes() const { return payload_bytes_; }

  /// Attach observability (category "hmc"): a complete-span per request
  /// (submit -> response at host) tagged with vault/bank and FLIT cost,
  /// cumulative link-FLIT counter tracks, and an `errstat_warning` instant
  /// for each response carrying the thermal-warning bit.  Read-only.
  void set_observer(obs::Trace trace, obs::CounterRegistry* counters = nullptr) {
    trace_ = trace;
    counters_ = counters;
  }

 private:
  [[nodiscard]] Time serialize_on_link(std::uint32_t flits, Time earliest);

  sim::Simulation& sim_;
  HmcConfig cfg_;
  ThermalPolicy policy_;
  AddressMap addr_map_;
  std::vector<Vault> vaults_;

  Celsius dram_temp_{25.0};
  bool shut_down_{false};

  // Link serializers: one FLIT pipe per direction, each carrying half the
  // aggregate raw link bandwidth (HMC links are full duplex).  The analytic
  // LinkModel pools both directions into a single FLIT budget, which matches
  // this model exactly for balanced read/write mixes and overestimates
  // heavily one-sided traffic; the throughput cross-check test pins the
  // balanced case.
  Time req_link_free_{Time::zero()};
  Time resp_link_free_{Time::zero()};
  Time flit_time_{Time::zero()};
  Time crossbar_latency_{Time::ns(3.0)};

  std::uint64_t total_flits_{0};
  std::uint64_t payload_bytes_{0};
  StatSet stats_;
  obs::Trace trace_;
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::hmc
