#include "graph/csr.hpp"

#include <algorithm>
#include <functional>

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

CsrGraph CsrGraph::from_edges(VertexId num_vertices,
                              std::vector<std::pair<VertexId, VertexId>> edges,
                              std::vector<std::uint32_t> weights, runner::Pool* pool) {
  COOLPIM_REQUIRE(weights.empty() || weights.size() == edges.size(),
                  "weights must match edge count");
  CsrGraph g;
  g.n_ = num_vertices;
  g.row_ptr_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);

  // Chunked counting sort.  Each chunk counts its own contiguous edge range;
  // a serial pass turns the per-chunk counts into per-chunk write cursors in
  // place (chunk c's cursor for vertex v starts where chunk c-1's edges of v
  // end), and the scatter then runs chunk-parallel.  Because an edge's final
  // position depends only on (source, input rank within source), the output
  // is the same for any chunking.  Without a pool the chunk runs on the
  // caller.
  const std::size_t chunks =
      chunk_count(edges.size(), pool != nullptr ? pool->size() : 1);
  const std::size_t per_chunk = (edges.size() + chunks - 1) / chunks;
  const auto for_each_chunk = [&](const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr) {
      pool->parallel_for(chunks, fn);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) fn(c);
    }
  };
  std::vector<std::vector<EdgeId>> cursors(chunks);
  for_each_chunk([&](std::size_t c) {
    auto& count = cursors[c];
    count.assign(static_cast<std::size_t>(num_vertices), 0);
    const std::size_t lo = c * per_chunk;
    const std::size_t hi = std::min(edges.size(), lo + per_chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto [src, dst] = edges[i];
      COOLPIM_REQUIRE(src < num_vertices && dst < num_vertices, "edge endpoint out of range");
      ++count[src];
    }
  });

  EdgeId running = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.row_ptr_[v] = running;
    for (auto& cursor : cursors) {
      const EdgeId count = cursor[v];
      cursor[v] = running;
      running += count;
    }
  }
  g.row_ptr_[num_vertices] = running;

  g.col_idx_.resize(edges.size());
  if (!weights.empty()) g.weights_.resize(edges.size());
  const bool weighted = !weights.empty();
  for_each_chunk([&](std::size_t c) {
    auto& cursor = cursors[c];
    const std::size_t lo = c * per_chunk;
    const std::size_t hi = std::min(edges.size(), lo + per_chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto [src, dst] = edges[i];
      const EdgeId pos = cursor[src]++;
      g.col_idx_[pos] = dst;
      if (weighted) g.weights_[pos] = weights[i];
    }
  });

  g.degrees_.resize(static_cast<std::size_t>(num_vertices));
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.degrees_[v] = static_cast<std::uint32_t>(g.row_ptr_[v + 1] - g.row_ptr_[v]);
  }
  return g;
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
