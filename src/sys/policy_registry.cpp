#include "sys/policy_registry.hpp"

#include "common/error.hpp"
#include "control/baselines.hpp"
#include "hmc/link_model.hpp"
#include "hmc/packet.hpp"

namespace coolpim::sys {

bool policy_from_name(std::string_view name, Scenario& out) {
  for (const PolicyInfo& p : kRegisteredPolicies) {
    if (p.cli_name == name) {
      out = p.scenario;
      return true;
    }
  }
  return false;
}

std::string policy_names() {
  std::string names;
  for (const PolicyInfo& p : kRegisteredPolicies) {
    if (!names.empty()) names += ", ";
    names += p.cli_name;
  }
  return names;
}

std::unique_ptr<control::Policy> make_policy(const PolicyBuild& build) {
  switch (build.scenario) {
    case Scenario::kNonOffloading:
      return std::make_unique<control::NonOffloadingPolicy>();
    case Scenario::kNaiveOffloading:
    case Scenario::kIdealThermal:
      return std::make_unique<control::NaivePolicy>();
    case Scenario::kCoolPimSw:
      return std::make_unique<control::SwDynT>(build.sw);
    case Scenario::kCoolPimHw:
      return std::make_unique<control::HwDynT>(build.hw);
    case Scenario::kBwThrottle:
      return std::make_unique<control::BwThrottle>(build.bw);
    case Scenario::kMpc:
      return std::make_unique<control::MpcPolicy>(build.mpc);
    case Scenario::kPolicyTable:
      return std::make_unique<control::TablePolicy>(build.table);
  }
  throw ConfigError("unknown scenario");
}

std::unique_ptr<control::Policy> make_policy(const SystemConfig& cfg,
                                             const graph::WorkloadProfile& workload,
                                             double naive_rate_estimate) {
  PolicyBuild build;
  build.scenario = cfg.scenario;
  build.sw.control_factor = cfg.sw_control_factor;
  control::Eq1Inputs& eq1 = build.sw.eq1;
  eq1.max_blocks = static_cast<std::uint32_t>(cfg.gpu.max_resident_blocks());
  eq1.pim_intensity = workload.pim_intensity();
  eq1.divergent_warp_ratio = workload.divergence_ratio();
  eq1.target_rate_op_per_ns = cfg.target_rate_op_per_ns;
  eq1.margin_blocks = cfg.eq1_margin_blocks;
  // Peak PIM rate: the link FLIT budget divided by 3 FLITs per op.
  eq1.pim_peak_rate_op_per_ns = hmc::LinkModel{cfg.hmc}.flits_per_sec() /
                                hmc::flit_cost(hmc::TransactionType::kPimNoReturn).total() *
                                1e-9;
  eq1.estimated_naive_rate_op_per_ns = naive_rate_estimate;
  build.hw.max_warps_per_sm = static_cast<std::uint32_t>(cfg.gpu.max_warps_per_sm);
  build.hw.control_factor = cfg.hw_control_factor;
  build.mpc = cfg.mpc;
  build.table = cfg.policy_table;
  return make_policy(build);
}

}  // namespace coolpim::sys
