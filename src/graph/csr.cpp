#include "graph/csr.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "graph/csr_build.hpp"
#include "runner/pool.hpp"

namespace coolpim::graph {

namespace {

/// Edge chunking for the parallel counting sort: enough chunks to feed the
/// pool, but never so many that the per-chunk count tables dominate.
std::size_t chunk_count(std::size_t edges, unsigned jobs) {
  constexpr std::size_t kMinEdgesPerChunk = 1u << 15;
  const std::size_t by_size = std::max<std::size_t>(1, edges / kMinEdgesPerChunk);
  return std::max<std::size_t>(1, std::min<std::size_t>(jobs, by_size));
}

}  // namespace

namespace detail {

CsrGraph build_csr(VertexId num_vertices, const EdgeGroups& edges, runner::Pool* pool) {
  const auto for_each_group = [&](const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr) {
      pool->parallel_for(edges.groups, fn);
    } else {
      for (std::size_t g = 0; g < edges.groups; ++g) fn(g);
    }
  };
  const auto vertex = [&](VertexId key) {
    return edges.vertex_of_key.empty() ? key : edges.vertex_of_key[key];
  };
  const std::size_t n = num_vertices;

  std::vector<std::vector<EdgeId>> cursors(edges.groups);
  for_each_group([&](std::size_t g) {
    cursors[g].assign(n, 0);
    edges.count(g, cursors[g].data());
  });

  CsrGraph csr;
  csr.n_ = num_vertices;
  csr.row_ptr_.assign(n + 1, 0);
  for (VertexId key = 0; key < num_vertices; ++key) {
    EdgeId degree = 0;
    for (const auto& count : cursors) degree += count[key];
    csr.row_ptr_[vertex(key) + 1] = degree;
  }
  std::partial_sum(csr.row_ptr_.begin(), csr.row_ptr_.end(), csr.row_ptr_.begin());
  csr.degrees_.resize(n);
  for (VertexId v = 0; v < num_vertices; ++v) {
    csr.degrees_[v] = static_cast<std::uint32_t>(csr.row_ptr_[v + 1] - csr.row_ptr_[v]);
  }
  // Each group's counts become its cursors in place: group g's edges of a
  // source start where group g - 1's end.
  for (VertexId key = 0; key < num_vertices; ++key) {
    EdgeId next = csr.row_ptr_[vertex(key)];
    for (auto& cursor : cursors) {
      const EdgeId count = cursor[key];
      cursor[key] = next;
      next += count;
    }
  }

  csr.col_idx_.resize(csr.row_ptr_[n]);
  if (edges.weighted) csr.weights_.resize(csr.row_ptr_[n]);
  for_each_group([&](std::size_t g) {
    edges.scatter(g, {cursors[g].data(), csr.col_idx_.data(),
                      edges.weighted ? csr.weights_.data() : nullptr});
  });
  return csr;
}

}  // namespace detail

CsrGraph CsrGraph::from_edges(VertexId num_vertices,
                              std::vector<std::pair<VertexId, VertexId>> edges,
                              std::vector<std::uint32_t> weights, runner::Pool* pool) {
  COOLPIM_REQUIRE(weights.empty() || weights.size() == edges.size(),
                  "weights must match edge count");
  // Contiguous edge chunks, one group each.
  const std::size_t chunks =
      chunk_count(edges.size(), pool != nullptr ? pool->size() : 1);
  const std::size_t per_chunk = (edges.size() + chunks - 1) / chunks;
  const auto first = [&](std::size_t c) { return std::min(edges.size(), c * per_chunk); };

  detail::EdgeGroups chunked;
  chunked.groups = chunks;
  chunked.weighted = !weights.empty();
  chunked.count = [&](std::size_t c, EdgeId* count) {
    for (std::size_t i = first(c); i < first(c + 1); ++i) {
      const auto [src, dst] = edges[i];
      COOLPIM_REQUIRE(src < num_vertices && dst < num_vertices, "edge endpoint out of range");
      ++count[src];
    }
  };
  chunked.scatter = [&](std::size_t c, const detail::CsrCursors& out) {
    for (std::size_t i = first(c); i < first(c + 1); ++i) {
      const auto [src, dst] = edges[i];
      const EdgeId pos = out.next[src]++;
      out.col_idx[pos] = dst;
      if (out.weights != nullptr) out.weights[pos] = weights[i];
    }
  };
  return detail::build_csr(num_vertices, chunked, pool);
}

std::uint32_t CsrGraph::max_degree() const {
  std::uint32_t best = 0;
  for (const auto d : degrees_) best = std::max(best, d);
  return best;
}

VertexId CsrGraph::max_degree_vertex() const {
  VertexId best = 0;
  std::uint32_t best_degree = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (degrees_[v] > best_degree) {
      best_degree = degrees_[v];
      best = v;
    }
  }
  return best;
}

}  // namespace coolpim::graph
