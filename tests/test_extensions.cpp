// Tests for the extension workloads (cc, tc), the PEI-style coherent offload
// policy, and the energy accounting.
#include <gtest/gtest.h>

#include "control/baselines.hpp"
#include "gpu/engine.hpp"
#include "graph/generator.hpp"
#include "graph/reference.hpp"
#include "graph/workloads.hpp"
#include "sys/system.hpp"

namespace coolpim {
namespace {

const graph::CsrGraph& small_graph() {
  static const graph::CsrGraph g = graph::make_ldbc_like(11, 9);
  return g;
}

TEST(ConnectedComponentsTest, MatchesUnionFind) {
  const auto profile = graph::run_connected_components(small_graph());
  const auto ref = graph::reference::component_labels(small_graph());
  EXPECT_EQ(profile.result_checksum, graph::checksum_vector(ref));
  EXPECT_GT(profile.total_atomics(), 0u);
}

TEST(ConnectedComponentsTest, DisconnectedGraphKeepsLabels) {
  const auto g = graph::CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {4, 5}});
  const auto profile = graph::run_connected_components(g);
  const auto ref = graph::reference::component_labels(g);
  EXPECT_EQ(profile.result_checksum, graph::checksum_vector(ref));
  // Components: {0,1,2}, {3}, {4,5} -> labels 0,0,0,3,4,4.
  EXPECT_EQ(ref, (std::vector<graph::VertexId>{0, 0, 0, 3, 4, 4}));
}

TEST(TriangleCountTest, MatchesReference) {
  const auto profile = graph::run_triangle_count(small_graph());
  const auto ref = graph::reference::triangle_count(small_graph());
  EXPECT_EQ(profile.result_checksum, graph::checksum_bytes(&ref, sizeof(ref)));
  EXPECT_GT(ref, 0u);  // RMAT graphs close many wedges
}

TEST(TriangleCountTest, KnownSmallGraph) {
  // One triangle 0-1-2 plus a pendant edge (made symmetric for the counter).
  // The counter intersects full neighbour lists per ordered edge (v < u), so
  // each triangle contributes once per ordered edge pair: 3 per triangle.
  const auto g = graph::CsrGraph::from_edges(
      4, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2}, {2, 3}, {3, 2}});
  EXPECT_EQ(graph::reference::triangle_count(g), 3u);
  // Without the closing edge there is no triangle.
  const auto path = graph::CsrGraph::from_edges(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}});
  EXPECT_EQ(graph::reference::triangle_count(path), 0u);
}

TEST(ExtendedRegistryTest, OptInViaWorkloadSet) {
  const sys::WorkloadSet base{11, 2, /*include_extended=*/false};
  EXPECT_THROW((void)base.profile("cc"), ConfigError);
  const sys::WorkloadSet ext{11, 2, /*include_extended=*/true};
  EXPECT_EQ(ext.profile("cc").name, "cc");
  EXPECT_EQ(ext.profile("tc").name, "tc");
  EXPECT_EQ(sys::extended_workload_names().size(), 2u);
}

TEST(OffloadPolicyTest, CoherentPolicyAddsWritebackTraffic) {
  gpu::LaunchSpec spec;
  spec.warp_instructions = 1e6;
  spec.mem.atomic_ops = 1e5;
  spec.blocks = 64;
  spec.warps = 512;

  auto demand_for = [&](gpu::OffloadPolicy policy) {
    gpu::GpuConfig cfg;
    cfg.offload_policy = policy;
    control::NaivePolicy ctrl;
    gpu::ExecutionEngine engine{cfg, {spec}, ctrl};
    hmc::EpochService empty{};
    (void)engine.commit(Time::zero(), engine.launch_overhead, empty);
    return engine.plan(engine.launch_overhead, Time::us(10));
  };

  const auto graphpim = demand_for(gpu::OffloadPolicy::kUncacheableRegion);
  const auto pei = demand_for(gpu::OffloadPolicy::kCoherentWriteback);
  EXPECT_DOUBLE_EQ(graphpim.writes, 0.0);
  EXPECT_GT(pei.writes, 0.0);
  EXPECT_NEAR(pei.writes, pei.pim_ops * 0.35, 1e-6);
  EXPECT_DOUBLE_EQ(graphpim.pim_ops, pei.pim_ops);
}

TEST(EnergyAccountingTest, MeasuredRunAccumulatesEnergy) {
  const sys::WorkloadSet set{14, 1};
  sys::SystemConfig cfg;
  cfg.scenario = sys::Scenario::kCoolPimHw;
  sys::System system{cfg};
  const auto r = system.run(set.profile("dc"));
  EXPECT_GT(r.cube_energy_j, 0.0);
  EXPECT_GT(r.fan_energy_j, 0.0);
  EXPECT_NEAR(r.total_energy_j(), r.cube_energy_j + r.fan_energy_j, 1e-12);
  // Sanity: average power implied by the energy is within the cube's range.
  const double avg_w = r.cube_energy_j / r.exec_time.as_sec();
  EXPECT_GT(avg_w, 5.0);
  EXPECT_LT(avg_w, 120.0);
}

TEST(EnergyAccountingTest, OffloadingSavesEnergyWhenCool) {
  // With the ideal-thermal assumption, offloading moves less data and spends
  // less total energy -- the original PIM motivation.
  const sys::WorkloadSet set{14, 1};
  auto energy = [&](sys::Scenario s) {
    sys::SystemConfig cfg;
    cfg.scenario = s;
    sys::System system{cfg};
    return system.run(set.profile("dc")).cube_energy_j;
  };
  EXPECT_LT(energy(sys::Scenario::kIdealThermal), energy(sys::Scenario::kNonOffloading));
}

}  // namespace
}  // namespace coolpim
