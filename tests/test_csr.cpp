// Tests for the CSR graph container.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <numeric>

#include "graph/csr.hpp"
#include "graph/generator.hpp"
#include "runner/pool.hpp"
#include "support/csr_reference.hpp"
#include "support/graph_reference.hpp"

namespace coolpim::graph {
namespace {

CsrGraph triangle() {
  return CsrGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}, {0, 2}}, {10, 20, 30, 40});
}

TEST(CsrTest, BasicStructure) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 1u);
  EXPECT_TRUE(g.has_weights());
}

TEST(CsrTest, NeighborsAndWeightsAligned) {
  const CsrGraph g = triangle();
  const auto nbrs = g.neighbors(0);
  const auto wts = g.edge_weights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  ASSERT_EQ(wts.size(), 2u);
  // Edges from 0 were (0,1,w10) and (0,2,w40), kept in insertion order.
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(wts[0], 10u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(wts[1], 40u);
}

TEST(CsrTest, EmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(5, {});
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 0u);
  EXPECT_FALSE(g.has_weights());
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(CsrTest, SelfLoopsAndMultiEdgesKept) {
  const CsrGraph g = CsrGraph::from_edges(2, {{0, 0}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 3u);
}

TEST(CsrTest, OutOfRangeEdgeThrows) {
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 5}}), ConfigError);
  EXPECT_THROW(CsrGraph::from_edges(2, {{7, 0}}), ConfigError);
}

TEST(CsrTest, WeightCountMismatchThrows) {
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 1}}, {1, 2}), ConfigError);
}

TEST(CsrTest, StructureBytesAccounting) {
  const CsrGraph g = triangle();
  const std::uint64_t expected = 4 * sizeof(EdgeId) +        // row_ptr (n+1)
                                 4 * sizeof(VertexId) +      // col_idx
                                 4 * sizeof(std::uint32_t);  // weights
  EXPECT_EQ(g.structure_bytes(), expected);
}

TEST(CsrTest, DegreeTableMatchesRowPtr) {
  const CsrGraph g = make_rmat(10, 8, 5);
  ASSERT_EQ(g.degrees().size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.degrees()[v], g.out_degree(v));
  }
}

TEST(CsrTest, MaxDegreeVertexIsLowestIdArgmax) {
  // Ties break toward the lowest vertex id -- the same answer the original
  // linear hub scans produced.
  const CsrGraph g = CsrGraph::from_edges(4, {{2, 0}, {2, 1}, {3, 0}, {3, 1}, {0, 1}});
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.max_degree_vertex(), 2u);  // vertices 2 and 3 both have degree 2

  const CsrGraph empty = CsrGraph::from_edges(3, {});
  EXPECT_EQ(empty.max_degree_vertex(), 0u);

  const CsrGraph r = make_rmat(10, 8, 5);
  VertexId expect = 0;
  std::uint32_t best = 0;
  for (VertexId v = 0; v < r.num_vertices(); ++v) {
    if (r.out_degree(v) > best) {
      best = r.out_degree(v);
      expect = v;
    }
  }
  EXPECT_EQ(r.max_degree_vertex(), expect);
}

TEST(CsrTest, ParallelBuildBitIdenticalToSerial) {
  // The chunked counting sort must produce the serial sort's arrays at any
  // jobs count, including edge-order-sensitive cases (multi-edges and
  // weights keep their insertion order per source).  Chunks hold at least
  // 2^15 edges, so this many edges split the build into 2, 3 and 8 chunks.
  constexpr VertexId kVertices = 10007;
  constexpr std::uint32_t kEdges = (8u << 15) + 4321;
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<std::uint32_t> weights;
  for (std::uint32_t i = 0; i < kEdges; ++i) {
    edges.emplace_back((i * 2654435761u) % kVertices, (i * 40503u) % kVertices);
    weights.push_back(i % 64 + 1);
  }
  const ReferenceCsr serial = reference_csr(kVertices, edges, weights);
  const auto check = [&](const CsrGraph& g) {
    EXPECT_EQ(g.row_ptr(), serial.row_ptr);
    EXPECT_EQ(g.col_idx(), serial.col_idx);
    EXPECT_EQ(g.weights(), serial.weights);
    for (VertexId v = 0; v < kVertices; ++v) {
      ASSERT_EQ(g.out_degree(v), serial.row_ptr[v + 1] - serial.row_ptr[v]);
    }
  };
  check(CsrGraph::from_edges(kVertices, edges, weights));
  for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(jobs);
    runner::Pool pool{jobs};
    check(CsrGraph::from_edges(kVertices, edges, weights, &pool));
  }
}

// Property sweep: degree sums equal edge counts for all generators.
struct GenCase {
  const char* name;
  CsrGraph (*make)();
};

class DegreeSumProperty : public ::testing::TestWithParam<GenCase> {};

TEST_P(DegreeSumProperty, SumEqualsEdges) {
  const CsrGraph g = GetParam().make();
  std::uint64_t total = 0;
  std::uint32_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    total += g.out_degree(v);
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(max_deg, g.max_degree());
  EXPECT_NEAR(g.mean_degree(),
              static_cast<double>(g.num_edges()) / g.num_vertices(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Generators, DegreeSumProperty,
    ::testing::Values(GenCase{"rmat", [] { return make_rmat(10, 8, 1); }},
                      GenCase{"uniform", [] { return make_uniform(500, 4000, 2); }},
                      GenCase{"grid", [] { return make_grid(16, 16); }},
                      GenCase{"ldbc", [] { return make_ldbc_like(9, 3); }}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace coolpim::graph
