// Test-support oracles for the instrumented graph workloads (a different
// algorithmic strategy, the same answer), and two small generators that give
// the tests contrast cases to RMAT's skew.  Linked by test_csr,
// test_generator, test_workloads and test_extensions, never by a library
// under src/.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace coolpim::graph {

/// Erdos-Renyi style uniform random graph (by edge sampling).
[[nodiscard]] CsrGraph make_uniform(VertexId num_vertices, EdgeId num_edges,
                                    std::uint64_t seed, bool weighted = true);

/// 2D grid (4-neighbour torus): regular degrees, zero divergence contrast.
[[nodiscard]] CsrGraph make_grid(VertexId width, VertexId height, bool weighted = true);

namespace reference {

/// BFS levels via a plain FIFO queue.
[[nodiscard]] std::vector<std::uint32_t> bfs_levels(const CsrGraph& g, VertexId source);

/// Shortest-path distances via Dijkstra (binary heap).
[[nodiscard]] std::vector<std::uint32_t> sssp_distances(const CsrGraph& g, VertexId source);

/// In-degree of every vertex.
[[nodiscard]] std::vector<std::uint32_t> in_degrees(const CsrGraph& g);

/// k-core removal flags via bucket peeling on undirected-ized degree.
[[nodiscard]] std::vector<std::uint8_t> kcore_removed(const CsrGraph& g, unsigned k);

/// Power-iteration PageRank (pull style -- different accumulation order).
[[nodiscard]] std::vector<double> pagerank_scores(const CsrGraph& g, unsigned iterations,
                                                  double damping = 0.85);

/// Connected-component labels via union-find over the undirected-ized edges
/// (min vertex id per component).
[[nodiscard]] std::vector<VertexId> component_labels(const CsrGraph& g);

/// Triangle count over the de-duplicated undirected-ized adjacency (counts
/// ordered wedges closed by an edge, same convention as run_triangle_count).
[[nodiscard]] std::uint64_t triangle_count(const CsrGraph& g);

}  // namespace reference
}  // namespace coolpim::graph
