#include "support/csr_reference.hpp"

#include <numeric>

namespace coolpim::graph {

ReferenceCsr reference_csr(VertexId num_vertices,
                           const std::vector<std::pair<VertexId, VertexId>>& edges,
                           const std::vector<std::uint32_t>& weights) {
  ReferenceCsr out;
  out.row_ptr.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& [src, dst] : edges) ++out.row_ptr[src + 1];
  std::partial_sum(out.row_ptr.begin(), out.row_ptr.end(), out.row_ptr.begin());

  out.col_idx.resize(edges.size());
  if (!weights.empty()) out.weights.resize(edges.size());
  std::vector<EdgeId> cursor(out.row_ptr.begin(), out.row_ptr.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [src, dst] = edges[i];
    const EdgeId pos = cursor[src]++;
    out.col_idx[pos] = dst;
    if (!weights.empty()) out.weights[pos] = weights[i];
  }
  return out;
}

}  // namespace coolpim::graph
