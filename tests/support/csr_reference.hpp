// Test-support oracle for graph::CsrGraph::from_edges: the one-pass serial
// counting sort the chunked build must reproduce bit for bit.  Linked by
// test_csr, never by a library under src/.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace coolpim::graph {

/// The CSR arrays of a serial build.
struct ReferenceCsr {
  std::vector<EdgeId> row_ptr;
  std::vector<VertexId> col_idx;
  std::vector<std::uint32_t> weights;  // empty when `weights` was
};

/// Count out-degrees, prefix-sum them into row_ptr, then scatter the edges
/// front to back through one cursor per vertex.  Expects in-range endpoints
/// and `weights` empty or one per edge.
[[nodiscard]] ReferenceCsr reference_csr(VertexId num_vertices,
                                         const std::vector<std::pair<VertexId, VertexId>>& edges,
                                         const std::vector<std::uint32_t>& weights = {});

}  // namespace coolpim::graph
