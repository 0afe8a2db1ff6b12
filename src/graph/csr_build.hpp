// The counting sort every CsrGraph is built by, internal to coolpim_graph:
// CsrGraph::from_edges feeds it a stored edge list, graph::make_rmat the
// edges its sampler draws twice -- once to count, once to scatter -- so the
// RMAT build never holds an edge list (docs/PERFORMANCE.md section 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "graph/csr.hpp"

namespace coolpim::graph::detail {

/// Where a group's scatter puts its edges: `next` holds, per source key, the
/// position its next edge goes to; `weights` is null for an unweighted graph.
struct CsrCursors {
  EdgeId* next;
  VertexId* col_idx;
  std::uint32_t* weights;
};

/// A graph's edges as `groups` contiguous runs in input order (group g's
/// edges all precede group g + 1's).  Edges are counted and placed by a
/// source key; `vertex_of_key` maps a key to its vertex, and an empty span
/// means the keys are the vertices.  Both callbacks must see the same edges
/// in the same order; groups run concurrently over the pool.
struct EdgeGroups {
  std::size_t groups{0};
  bool weighted{false};
  std::span<const VertexId> vertex_of_key;
  /// Add one to count[key] for each of group g's edges.
  std::function<void(std::size_t g, EdgeId* count)> count;
  /// Write group g's edges in input order, each at `next[key]++`.
  std::function<void(std::size_t g, const CsrCursors& out)> scatter;
};

/// Count each group's sources into its own table, turn the tables into
/// write cursors (group g's edges of a source start where group g - 1's end),
/// then scatter the groups.  Every source keeps its input order, so the
/// arrays do not depend on the grouping or on `pool` (nullptr: the groups
/// run in order on the caller).
CsrGraph build_csr(VertexId num_vertices, const EdgeGroups& edges, runner::Pool* pool);

}  // namespace coolpim::graph::detail
