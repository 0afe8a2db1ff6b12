// The scenario -> policy registry.  Both system models build their policy
// through make_policy(SystemConfig, ...); RunConfig resolves --policy /
// COOLPIM_POLICY through policy_from_name().  Registering a policy in
// kRegisteredPolicies enrolls it in tests/test_policy_contract.cpp.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "control/bw_throttle.hpp"
#include "control/hw_dynt.hpp"
#include "control/mpc.hpp"
#include "control/policy.hpp"
#include "control/policy_table.hpp"
#include "control/sw_dynt.hpp"
#include "graph/profile.hpp"
#include "sys/scenario.hpp"
#include "sys/system.hpp"

namespace coolpim::sys {

/// Everything any registered policy may need; make_policy() picks the slice
/// the scenario uses.
struct PolicyBuild {
  Scenario scenario{Scenario::kCoolPimHw};
  control::SwDynTConfig sw{};
  control::HwDynTConfig hw{};
  control::BwThrottleConfig bw{};
  control::MpcConfig mpc{};
  control::PolicyTableConfig table{};
};

struct PolicyInfo {
  std::string_view cli_name;  // --policy / COOLPIM_POLICY vocabulary
  Scenario scenario;
};

/// Every registered *throttling* policy (baselines are scenarios, not
/// selectable policies).  The contract suite iterates this array.
inline constexpr PolicyInfo kRegisteredPolicies[] = {
    {"sw-dynt", Scenario::kCoolPimSw},
    {"hw-dynt", Scenario::kCoolPimHw},
    {"bw-throttle", Scenario::kBwThrottle},
    {"mpc", Scenario::kMpc},
    {"policy-table", Scenario::kPolicyTable},
};

/// Resolve a registered policy name; returns false (leaving `out` untouched)
/// for an unknown name.
[[nodiscard]] bool policy_from_name(std::string_view name, Scenario& out);

/// Comma-separated registered names, for --help and error messages.
[[nodiscard]] std::string policy_names();

/// Build the scenario's policy (baseline scenarios included).
[[nodiscard]] std::unique_ptr<control::Policy> make_policy(const PolicyBuild& build);

/// Build `cfg.scenario`'s policy from the config's CoolPIM knobs and the
/// workload's Eq. 1 inputs.  `naive_rate_estimate` is the static analysis'
/// un-throttled offloading rate in op/ns (the paper's "simple trial run");
/// 0 sizes the SW-DynT pool through the peak-rate decomposition instead.
[[nodiscard]] std::unique_ptr<control::Policy> make_policy(
    const SystemConfig& cfg, const graph::WorkloadProfile& workload,
    double naive_rate_estimate);

}  // namespace coolpim::sys
