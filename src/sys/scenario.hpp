// Evaluation scenarios (paper Section V-B).
#pragma once

#include <string_view>

namespace coolpim::sys {

enum class Scenario {
  kNonOffloading,   // baseline: HMC as plain GPU memory
  kNaiveOffloading, // PEI-style: offload everything, no source control
  kCoolPimSw,       // SW-DynT token pool
  kCoolPimHw,       // HW-DynT PCU
  kIdealThermal,    // naive offloading with unlimited cooling
  kBwThrottle,      // comparison policy: blanket bandwidth throttling
  // Predictive members of the controller zoo (sys/policy_registry.hpp).  New
  // scenarios append here so existing enum values -- and therefore existing
  // experiment keys and golden results -- stay stable.
  kMpc,             // MPC-style RC-model rollout (control/mpc.hpp)
  kPolicyTable,     // offline-fitted lookup table (control/policy_table.hpp)
};

[[nodiscard]] constexpr std::string_view to_string(Scenario s) {
  switch (s) {
    case Scenario::kNonOffloading: return "Non-Offloading";
    case Scenario::kNaiveOffloading: return "Naive-Offloading";
    case Scenario::kCoolPimSw: return "CoolPIM (SW)";
    case Scenario::kCoolPimHw: return "CoolPIM (HW)";
    case Scenario::kIdealThermal: return "Ideal Thermal";
    case Scenario::kBwThrottle: return "BW-Throttle";
    case Scenario::kMpc: return "CoolPIM (MPC)";
    case Scenario::kPolicyTable: return "Policy-Table";
  }
  return "?";
}

inline constexpr Scenario kAllScenarios[] = {
    Scenario::kNonOffloading, Scenario::kNaiveOffloading, Scenario::kCoolPimSw,
    Scenario::kCoolPimHw,     Scenario::kIdealThermal,    Scenario::kBwThrottle,
    Scenario::kMpc,           Scenario::kPolicyTable,
};

}  // namespace coolpim::sys
