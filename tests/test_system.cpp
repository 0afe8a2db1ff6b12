// Full-system integration tests: the six scenarios on a small LDBC-like
// graph must reproduce the paper's qualitative results (Figs. 10-13).
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <iterator>
#include <map>
#include <set>

#include "sys/system.hpp"

namespace coolpim::sys {
namespace {

class SystemFixture : public ::testing::Test {
 protected:
  static const WorkloadSet& workloads() {
    static const WorkloadSet set{18, 1};  // smallest scale that saturates bandwidth
                                          // with cache-resident properties ruled out
    return set;
  }

  static RunResult run(const std::string& workload, Scenario scenario) {
    SystemConfig cfg;
    cfg.scenario = scenario;
    System system{cfg};
    return system.run(workloads().profile(workload));
  }

  static const std::map<Scenario, RunResult>& dc_results() {
    static const std::map<Scenario, RunResult> results = [] {
      std::map<Scenario, RunResult> r;
      for (const auto s : kAllScenarios) r.emplace(s, run("dc", s));
      return r;
    }();
    return results;
  }
};

TEST_F(SystemFixture, AllScenariosRunAndProduceResults) {
  // kAllScenarios is the canonical iteration set for matrices and CLIs; it
  // must contain every scenario exactly once (kBwThrottle was once missing),
  // including the predictive controller-zoo members.
  std::set<Scenario> distinct{std::begin(kAllScenarios), std::end(kAllScenarios)};
  EXPECT_EQ(distinct.size(), 8u);
  EXPECT_EQ(distinct.count(Scenario::kBwThrottle), 1u);
  EXPECT_EQ(distinct.count(Scenario::kMpc), 1u);
  EXPECT_EQ(distinct.count(Scenario::kPolicyTable), 1u);

  ASSERT_EQ(dc_results().size(), 8u);
  for (const auto& [scenario, r] : dc_results()) {
    SCOPED_TRACE(to_string(scenario));
    EXPECT_GT(r.exec_time, Time::zero());
    EXPECT_GT(r.link_raw_bytes, 0.0);
    EXPECT_GT(r.peak_dram_temp.value(), 0.0);
    EXPECT_EQ(r.workload, "dc");
    EXPECT_EQ(r.scenario, to_string(scenario));
  }
}

TEST_F(SystemFixture, BaselineNeverOffloads) {
  const auto& r = dc_results().at(Scenario::kNonOffloading);
  EXPECT_EQ(r.pim_ops, 0u);
  EXPECT_GT(r.exec_time, Time::zero());
}

TEST_F(SystemFixture, IdealThermalIsFastest) {
  const auto& ideal = dc_results().at(Scenario::kIdealThermal);
  for (const auto& [scenario, r] : dc_results()) {
    EXPECT_LE(ideal.exec_time, r.exec_time) << to_string(scenario);
  }
}

TEST_F(SystemFixture, CoolPimBeatsNaiveOnHotWorkload) {
  // The paper's headline: thermal-aware throttling outperforms naive
  // offloading once the thermal issue triggers.
  const auto& naive = dc_results().at(Scenario::kNaiveOffloading);
  const auto& sw = dc_results().at(Scenario::kCoolPimSw);
  const auto& hw = dc_results().at(Scenario::kCoolPimHw);
  EXPECT_LT(sw.exec_time, naive.exec_time);
  EXPECT_LT(hw.exec_time, naive.exec_time);
}

TEST_F(SystemFixture, CoolPimStaysWithinNormalRange) {
  // Fig. 13: CoolPIM keeps peak DRAM temperature below 85 C while naive
  // offloading exceeds it.
  const auto& naive = dc_results().at(Scenario::kNaiveOffloading);
  const auto& sw = dc_results().at(Scenario::kCoolPimSw);
  const auto& hw = dc_results().at(Scenario::kCoolPimHw);
  EXPECT_GT(naive.peak_dram_temp.value(), 85.0);
  EXPECT_LE(sw.peak_dram_temp.value(), 85.5);
  EXPECT_LE(hw.peak_dram_temp.value(), 85.5);
}

TEST_F(SystemFixture, CoolPimKeepsPimRateUnderBudget) {
  // Fig. 12: source throttling keeps the rate below the 1.3 op/ns budget.
  const auto& naive = dc_results().at(Scenario::kNaiveOffloading);
  const auto& sw = dc_results().at(Scenario::kCoolPimSw);
  const auto& hw = dc_results().at(Scenario::kCoolPimHw);
  EXPECT_GT(naive.avg_pim_rate_op_per_ns(), 1.3);
  EXPECT_LE(sw.avg_pim_rate_op_per_ns(), 1.4);
  EXPECT_LE(hw.avg_pim_rate_op_per_ns(), 1.4);
}

TEST_F(SystemFixture, OffloadingSavesBandwidth) {
  // Fig. 11: naive offloading moves the least data; CoolPIM sits between
  // naive and the baseline.
  const auto& base = dc_results().at(Scenario::kNonOffloading);
  const auto& naive = dc_results().at(Scenario::kNaiveOffloading);
  const auto& hw = dc_results().at(Scenario::kCoolPimHw);
  EXPECT_LT(naive.consumption_bytes(), base.consumption_bytes());
  EXPECT_LT(hw.consumption_bytes(), base.consumption_bytes());
  EXPECT_GT(hw.consumption_bytes(), naive.consumption_bytes());
}

TEST_F(SystemFixture, NaiveSeesThermalWarningsCoolPimAvoidsDerating) {
  const auto& naive = dc_results().at(Scenario::kNaiveOffloading);
  const auto& hw = dc_results().at(Scenario::kCoolPimHw);
  EXPECT_GT(naive.thermal_warnings, 0u);
  EXPECT_GT(naive.time_above_normal, Time::zero());
  EXPECT_EQ(hw.time_above_normal, Time::zero());
}

TEST_F(SystemFixture, IdealThermalNeverHeats) {
  const auto& ideal = dc_results().at(Scenario::kIdealThermal);
  EXPECT_LE(ideal.peak_dram_temp.value(), 25.0 + 1e-9);
  EXPECT_EQ(ideal.thermal_warnings, 0u);
}

TEST_F(SystemFixture, DeterministicAcrossRuns) {
  const auto a = run("pagerank", Scenario::kCoolPimHw);
  const auto b = run("pagerank", Scenario::kCoolPimHw);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.pim_ops, b.pim_ops);
  EXPECT_DOUBLE_EQ(a.peak_dram_temp.value(), b.peak_dram_temp.value());
}

TEST_F(SystemFixture, LowIntensityWorkloadUnaffectedByThrottling) {
  // kcore never triggers the thermal issue, so naive and CoolPIM (HW) match
  // (paper Section V-B.1).
  const auto naive = run("kcore", Scenario::kNaiveOffloading);
  const auto hw = run("kcore", Scenario::kCoolPimHw);
  EXPECT_EQ(hw.exec_time, naive.exec_time);
  EXPECT_EQ(hw.thermal_warnings, 0u);
}

TEST_F(SystemFixture, TimeSeriesRecorded) {
  const auto& r = dc_results().at(Scenario::kNaiveOffloading);
  EXPECT_FALSE(r.pim_rate.empty());
  EXPECT_FALSE(r.dram_temp.empty());
  EXPECT_FALSE(r.link_bw.empty());
  EXPECT_EQ(r.pim_rate.size(), r.dram_temp.size());
}

TEST_F(SystemFixture, StartTempOverrideRespected) {
  SystemConfig cfg;
  cfg.scenario = Scenario::kNaiveOffloading;
  cfg.warm_start = false;
  cfg.start_temp_override = 84.0;
  System system{cfg};
  const auto r = system.run(workloads().profile("dc"));
  EXPECT_NEAR(r.start_dram_temp.value(), 84.0, 0.5);
}

TEST(WorkloadSetTest, AllTenWorkloadsPresent) {
  const WorkloadSet set{12, 3};
  EXPECT_EQ(workload_names().size(), 10u);
  for (const auto& name : workload_names()) {
    const auto& p = set.profile(name);
    EXPECT_EQ(p.name, name);
    EXPECT_GT(p.iterations.size(), 0u) << name;
  }
  EXPECT_THROW((void)set.profile("nonexistent"), ConfigError);
}

TEST_F(SystemFixture, BwThrottleCoolsButSlowerThanCoolPim) {
  // The blanket alternative also avoids derating, but on mixed workloads it
  // penalizes regular traffic (see bench_ablation_alternatives).
  SystemConfig cfg;
  cfg.scenario = Scenario::kBwThrottle;
  System system{cfg};
  const auto r = system.run(workloads().profile("sssp-dwc"));
  EXPECT_LE(r.peak_dram_temp.value(), 86.0);
  const auto hw = run("sssp-dwc", Scenario::kCoolPimHw);
  EXPECT_LE(hw.exec_time, r.exec_time);
}

TEST_F(SystemFixture, PeiPolicySlowerThanGraphPim) {
  SystemConfig pei;
  pei.scenario = Scenario::kCoolPimHw;
  pei.gpu.offload_policy = gpu::OffloadPolicy::kCoherentWriteback;
  System system{pei};
  const auto pei_run = system.run(workloads().profile("dc"));
  const auto graphpim = dc_results().at(Scenario::kCoolPimHw);
  EXPECT_GE(pei_run.exec_time, graphpim.exec_time);
  EXPECT_GT(pei_run.consumption_bytes(), graphpim.consumption_bytes());
}

TEST_F(SystemFixture, HighEndCoolingRemovesTheThrottleNeed) {
  SystemConfig cfg;
  cfg.scenario = Scenario::kNaiveOffloading;
  cfg.cooling = power::CoolingType::kHighEndActive;
  System system{cfg};
  const auto r = system.run(workloads().profile("dc"));
  // With the 0.2 C/W sink even naive offloading stays in the normal range
  // and matches the ideal-thermal speed.
  EXPECT_LT(r.peak_dram_temp.value(), 85.0);
  const auto& ideal = dc_results().at(Scenario::kIdealThermal);
  EXPECT_NEAR(r.exec_time.as_ms(), ideal.exec_time.as_ms(),
              0.1 * ideal.exec_time.as_ms());
}

TEST_F(SystemFixture, TargetRateConfigShiftsTheEquilibrium) {
  SystemConfig strict;
  strict.scenario = Scenario::kCoolPimSw;
  strict.target_rate_op_per_ns = 0.5;
  System system{strict};
  const auto r = system.run(workloads().profile("dc"));
  const auto& standard = dc_results().at(Scenario::kCoolPimSw);
  EXPECT_LT(r.avg_pim_rate_op_per_ns(), standard.avg_pim_rate_op_per_ns());
}

TEST_F(SystemFixture, EnergyTracksExecution) {
  const auto& base = dc_results().at(Scenario::kNonOffloading);
  EXPECT_GT(base.cube_energy_j, 0.0);
  EXPECT_GT(base.fan_energy_j, 0.0);
}

TEST(SystemConfigTest, MissingGraphMetadataRejected) {
  SystemConfig cfg;
  System system{cfg};
  graph::WorkloadProfile empty;
  EXPECT_THROW((void)system.run(empty), ConfigError);
}

}  // namespace
}  // namespace coolpim::sys
