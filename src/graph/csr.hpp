// Compressed sparse row graph, the storage format all workloads run on.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace coolpim::runner {
class Pool;
}  // namespace coolpim::runner

namespace coolpim::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

/// Directed graph in CSR form, with optional 32-bit edge weights.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Build from an edge list.  Self-loops are kept; duplicate edges are kept
  /// (graph generators may produce multi-edges, as real datasets do).
  ///
  /// A counting sort over contiguous edge chunks, run across `pool` (in order
  /// on the caller without one).  The scatter preserves the input order of
  /// every source's edges, so the arrays are the same at any jobs count;
  /// test_csr checks them against the serial sort in tests/support.
  static CsrGraph from_edges(VertexId num_vertices,
                             std::vector<std::pair<VertexId, VertexId>> edges,
                             std::vector<std::uint32_t> weights = {},
                             runner::Pool* pool = nullptr);

  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] EdgeId num_edges() const { return static_cast<EdgeId>(col_idx_.size()); }
  [[nodiscard]] bool has_weights() const { return !weights_.empty(); }

  [[nodiscard]] std::uint32_t out_degree(VertexId v) const {
    COOLPIM_ASSERT(v < n_);
    return degrees_[v];
  }

  /// Cached per-vertex out-degree table, built once with the CSR arrays.
  /// Kernels index this instead of differencing row_ptr per lookup, and the
  /// all-lanes-active workloads (dc, pagerank, cc) feed it straight into the
  /// SIMT cost model as their per-lane work vector.
  [[nodiscard]] const std::vector<std::uint32_t>& degrees() const { return degrees_; }

  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    COOLPIM_ASSERT(v < n_);
    return {col_idx_.data() + row_ptr_[v], col_idx_.data() + row_ptr_[v + 1]};
  }

  [[nodiscard]] std::span<const std::uint32_t> edge_weights(VertexId v) const {
    COOLPIM_ASSERT(v < n_ && has_weights());
    return {weights_.data() + row_ptr_[v], weights_.data() + row_ptr_[v + 1]};
  }

  [[nodiscard]] const std::vector<EdgeId>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<VertexId>& col_idx() const { return col_idx_; }
  /// Edge weights in col_idx() order; empty for an unweighted graph.
  [[nodiscard]] const std::vector<std::uint32_t>& weights() const { return weights_; }

  /// Maximum out-degree (used by divergence estimation and Eq. 1 inputs).
  [[nodiscard]] std::uint32_t max_degree() const;
  /// Lowest-id vertex of maximum out-degree -- the traversal source every
  /// BFS/SSSP profiling run starts from (RMAT graphs have isolated vertices,
  /// so random sources are useless).
  [[nodiscard]] VertexId max_degree_vertex() const;
  [[nodiscard]] double mean_degree() const {
    return n_ ? static_cast<double>(num_edges()) / static_cast<double>(n_) : 0.0;
  }

  /// Byte footprint of the CSR arrays (what streams from memory on scans).
  [[nodiscard]] std::uint64_t structure_bytes() const {
    return row_ptr_.size() * sizeof(EdgeId) + col_idx_.size() * sizeof(VertexId) +
           weights_.size() * sizeof(std::uint32_t);
  }

 private:
  VertexId n_{0};
  std::vector<EdgeId> row_ptr_;
  std::vector<VertexId> col_idx_;
  std::vector<std::uint32_t> weights_;
  std::vector<std::uint32_t> degrees_;
};

}  // namespace coolpim::graph
