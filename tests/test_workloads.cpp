// Tests for the instrumented graph workloads: functional correctness against
// independent reference implementations plus instrumentation invariants.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>

#include "graph/generator.hpp"
#include "graph/workloads.hpp"
#include "support/graph_reference.hpp"

namespace coolpim::graph {
namespace {

class WorkloadFixture : public ::testing::Test {
 protected:
  static const CsrGraph& graph() {
    static const CsrGraph g = make_ldbc_like(12, 5);
    return g;
  }
  static VertexId hub() { return graph().max_degree_vertex(); }
};

// --- Functional correctness ------------------------------------------------

TEST_F(WorkloadFixture, AllBfsVariantsComputeIdenticalLevels) {
  const auto ref = reference::bfs_levels(graph(), hub());
  const auto ref_sum = checksum_vector(ref);
  for (const auto v : {BfsVariant::kTopologyAtomic, BfsVariant::kTopologyThreadCentric,
                       BfsVariant::kTopologyWarpCentric, BfsVariant::kDataWarpCentric}) {
    const auto profile = run_bfs(graph(), hub(), v);
    EXPECT_EQ(profile.result_checksum, ref_sum) << profile.name;
  }
}

TEST_F(WorkloadFixture, SsspMatchesDijkstra) {
  const auto ref = reference::sssp_distances(graph(), hub());
  const auto ref_sum = checksum_vector(ref);
  for (const auto v : {SsspVariant::kDataThreadCentric, SsspVariant::kDataWarpCentric,
                       SsspVariant::kTopologyWarpCentric}) {
    const auto profile = run_sssp(graph(), hub(), v);
    EXPECT_EQ(profile.result_checksum, ref_sum) << profile.name;
  }
}

// One traversal serves every variant of a family: each profile from the
// full list equals the single-variant run's, whatever the list order.
TEST_F(WorkloadFixture, FamilyTraversalMatchesSingleVariantRuns) {
  const BfsVariant bfs[] = {BfsVariant::kTopologyAtomic, BfsVariant::kDataWarpCentric,
                            BfsVariant::kTopologyThreadCentric,
                            BfsVariant::kTopologyWarpCentric};
  const auto bfs_family = run_bfs(graph(), hub(), bfs);
  ASSERT_EQ(bfs_family.size(), std::size(bfs));
  for (std::size_t k = 0; k < std::size(bfs); ++k) {
    EXPECT_TRUE(bfs_family[k] == run_bfs(graph(), hub(), bfs[k])) << bfs_family[k].name;
  }

  const SsspVariant sssp[] = {SsspVariant::kDataThreadCentric, SsspVariant::kDataWarpCentric,
                              SsspVariant::kTopologyWarpCentric};
  const auto sssp_family = run_sssp(graph(), hub(), sssp);
  ASSERT_EQ(sssp_family.size(), std::size(sssp));
  for (std::size_t k = 0; k < std::size(sssp); ++k) {
    EXPECT_TRUE(sssp_family[k] == run_sssp(graph(), hub(), sssp[k])) << sssp_family[k].name;
  }

  const BfsVariant reordered[] = {BfsVariant::kTopologyWarpCentric,
                                  BfsVariant::kTopologyAtomic};
  const auto pair = run_bfs(graph(), hub(), reordered);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_TRUE(pair[0] == bfs_family[3]);
  EXPECT_TRUE(pair[1] == bfs_family[0]);
}

TEST_F(WorkloadFixture, DegreeCentralityMatchesReference) {
  const auto ref = reference::in_degrees(graph());
  EXPECT_EQ(run_degree_centrality(graph()).result_checksum, checksum_vector(ref));
}

TEST_F(WorkloadFixture, KcoreMatchesReference) {
  const auto ref = reference::kcore_removed(graph(), 16);
  EXPECT_EQ(run_kcore(graph(), 16).result_checksum, checksum_vector(ref));
}

TEST_F(WorkloadFixture, PagerankMatchesReference) {
  const auto ref = reference::pagerank_scores(graph(), 10);
  std::vector<std::uint64_t> quantized(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    quantized[i] = static_cast<std::uint64_t>(std::llround(ref[i] * 1e9));
  }
  EXPECT_EQ(run_pagerank(graph(), 10).result_checksum, checksum_vector(quantized));
}

// --- Instrumentation invariants ---------------------------------------------

TEST_F(WorkloadFixture, BfsProcessesEveryReachableEdgeOnce) {
  const auto profile = run_bfs(graph(), hub(), BfsVariant::kDataWarpCentric);
  // Each reachable vertex's out-edges are traversed exactly once.
  const auto levels = reference::bfs_levels(graph(), hub());
  std::uint64_t reachable_edges = 0;
  for (VertexId v = 0; v < graph().num_vertices(); ++v) {
    if (levels[v] != kUnreached) reachable_edges += graph().out_degree(v);
  }
  EXPECT_EQ(profile.total_edges(), reachable_edges);
}

TEST_F(WorkloadFixture, BfsAtomicPerEdgePlusQueueOps) {
  const auto dwc = run_bfs(graph(), hub(), BfsVariant::kDataWarpCentric);
  // Unconditional atomicMin per edge plus one enqueue atomic per discovery.
  EXPECT_GE(dwc.total_atomics(), dwc.total_edges());
  EXPECT_LE(dwc.total_atomics(), dwc.total_edges() + graph().num_vertices());
}

TEST_F(WorkloadFixture, PagerankAtomicsPerEdgePerIteration) {
  const auto pr = run_pagerank(graph(), 4);
  EXPECT_EQ(pr.iterations.size(), 4u);
  for (const auto& it : pr.iterations) {
    EXPECT_EQ(it.atomic_ops, it.edges_processed);
  }
}

TEST_F(WorkloadFixture, DivergenceRatiosOrdered) {
  // Thread-centric topology kernels diverge heavily on power-law graphs;
  // warp-centric ones stay near zero (paper Section IV-B).
  const auto tc = run_bfs(graph(), hub(), BfsVariant::kTopologyThreadCentric);
  const auto wc = run_bfs(graph(), hub(), BfsVariant::kTopologyWarpCentric);
  EXPECT_GT(tc.divergence_ratio(), 0.5);
  EXPECT_LT(wc.divergence_ratio(), 0.1);
}

TEST_F(WorkloadFixture, DivergenceInUnitInterval) {
  for (const auto& profile :
       {run_degree_centrality(graph()), run_kcore(graph()), run_pagerank(graph(), 2)}) {
    for (const auto& it : profile.iterations) {
      EXPECT_GE(it.divergent_warp_ratio, 0.0);
      EXPECT_LE(it.divergent_warp_ratio, 1.0);
    }
  }
}

TEST_F(WorkloadFixture, TopologyVariantsScanAllVertices) {
  const auto ta = run_bfs(graph(), hub(), BfsVariant::kTopologyAtomic);
  for (const auto& it : ta.iterations) {
    EXPECT_EQ(it.scanned_vertices, graph().num_vertices());
  }
  const auto dwc = run_bfs(graph(), hub(), BfsVariant::kDataWarpCentric);
  std::uint64_t scanned = 0;
  for (const auto& it : dwc.iterations) scanned += it.scanned_vertices;
  EXPECT_LT(scanned, static_cast<std::uint64_t>(graph().num_vertices()) *
                         dwc.iterations.size());
}

TEST_F(WorkloadFixture, AtomicFrontierAddsAtomicsToTa) {
  const auto ta = run_bfs(graph(), hub(), BfsVariant::kTopologyAtomic);
  const auto ttc = run_bfs(graph(), hub(), BfsVariant::kTopologyThreadCentric);
  EXPECT_GT(ta.total_atomics(), ttc.total_atomics());
}

TEST_F(WorkloadFixture, KcoreHasLowSustainedAtomicIntensity) {
  const auto kc = run_kcore(graph());
  // Atomics only on peeled edges: far fewer than total edge visits would be.
  EXPECT_LT(kc.total_atomics(), graph().num_edges());
}

TEST_F(WorkloadFixture, WorkThreadsMatchParallelism) {
  const auto tc = run_bfs(graph(), hub(), BfsVariant::kTopologyThreadCentric);
  EXPECT_EQ(tc.iterations.front().work_threads, graph().num_vertices());
  const auto wc = run_bfs(graph(), hub(), BfsVariant::kTopologyWarpCentric);
  EXPECT_EQ(wc.iterations.front().work_threads,
            static_cast<std::uint64_t>(graph().num_vertices()) * 32);
}

TEST_F(WorkloadFixture, GraphMetadataPopulated) {
  for (const auto& profile : {run_degree_centrality(graph()), run_kcore(graph())}) {
    EXPECT_EQ(profile.graph_vertices, graph().num_vertices());
    EXPECT_EQ(profile.graph_edges, graph().num_edges());
  }
}

TEST_F(WorkloadFixture, PimIntensityPositiveForAtomicWorkloads) {
  EXPECT_GT(run_degree_centrality(graph()).pim_intensity(), 0.0);
  EXPECT_GT(run_pagerank(graph(), 2).pim_intensity(), 0.0);
}

TEST(WorkloadEdgeCases, BfsFromIsolatedVertex) {
  const CsrGraph g = CsrGraph::from_edges(4, {{1, 2}, {2, 3}}, {1, 1});
  const auto profile = run_bfs(g, 0, BfsVariant::kDataWarpCentric);
  EXPECT_EQ(profile.total_edges(), 0u);
  EXPECT_EQ(profile.result_checksum,
            checksum_vector(reference::bfs_levels(g, 0)));
}

TEST(WorkloadEdgeCases, SsspRequiresWeights) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(run_sssp(g, 0, SsspVariant::kDataWarpCentric), ConfigError);
}

TEST(WorkloadEdgeCases, SourceOutOfRangeThrows) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}}, {1});
  EXPECT_THROW(run_bfs(g, 7, BfsVariant::kTopologyAtomic), ConfigError);
  EXPECT_THROW(run_sssp(g, 7, SsspVariant::kDataWarpCentric), ConfigError);
}

TEST(WorkloadEdgeCases, KcoreFullyPeelsSparseGraph) {
  // Every vertex has degree < k: all removed after one peel round.
  const CsrGraph g = make_grid(8, 8);  // degree 8 undirected-ized
  const auto profile = run_kcore(g, 100);
  const auto ref = reference::kcore_removed(g, 100);
  EXPECT_EQ(profile.result_checksum, checksum_vector(ref));
  EXPECT_TRUE(std::all_of(ref.begin(), ref.end(), [](auto r) { return r == 1; }));
}

// Checksum helper sanity.
TEST(ChecksumTest, SensitiveToContent) {
  std::vector<std::uint32_t> a{1, 2, 3}, b{1, 2, 4};
  EXPECT_NE(checksum_vector(a), checksum_vector(b));
  EXPECT_EQ(checksum_vector(a), checksum_vector(a));
}

}  // namespace
}  // namespace coolpim::graph
