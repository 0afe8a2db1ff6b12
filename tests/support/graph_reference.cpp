#include "support/graph_reference.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/workloads.hpp"

namespace coolpim::graph {

namespace {

std::vector<std::uint32_t> random_weights(Rng& rng, std::size_t n, std::uint32_t max_weight) {
  std::vector<std::uint32_t> w(n);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.next_in(1, max_weight));
  return w;
}

}  // namespace

CsrGraph make_uniform(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed,
                      bool weighted) {
  COOLPIM_REQUIRE(num_vertices > 0, "graph needs vertices");
  Rng rng{seed};
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    edges.emplace_back(static_cast<VertexId>(rng.next_below(num_vertices)),
                       static_cast<VertexId>(rng.next_below(num_vertices)));
  }
  std::vector<std::uint32_t> weights;
  if (weighted) weights = random_weights(rng, edges.size(), 64);
  return CsrGraph::from_edges(num_vertices, std::move(edges), std::move(weights));
}

CsrGraph make_grid(VertexId width, VertexId height, bool weighted) {
  COOLPIM_REQUIRE(width > 0 && height > 0, "grid needs positive dimensions");
  const VertexId n = width * height;
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(static_cast<std::size_t>(n) * 4);
  auto id = [width](VertexId x, VertexId y) { return y * width + x; };
  for (VertexId y = 0; y < height; ++y) {
    for (VertexId x = 0; x < width; ++x) {
      edges.emplace_back(id(x, y), id((x + 1) % width, y));
      edges.emplace_back(id(x, y), id((x + width - 1) % width, y));
      edges.emplace_back(id(x, y), id(x, (y + 1) % height));
      edges.emplace_back(id(x, y), id(x, (y + height - 1) % height));
    }
  }
  std::vector<std::uint32_t> weights;
  if (weighted) {
    Rng rng{42};
    weights = random_weights(rng, edges.size(), 64);
  }
  return CsrGraph::from_edges(n, std::move(edges), std::move(weights));
}

namespace reference {

std::vector<std::uint32_t> bfs_levels(const CsrGraph& g, VertexId source) {
  std::vector<std::uint32_t> level(g.num_vertices(), kUnreached);
  level[source] = 0;
  std::deque<VertexId> queue{source};
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId dst : g.neighbors(v)) {
      if (level[dst] == kUnreached) {
        level[dst] = level[v] + 1;
        queue.push_back(dst);
      }
    }
  }
  return level;
}

std::vector<std::uint32_t> sssp_distances(const CsrGraph& g, VertexId source) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreached);
  dist[source] = 0;
  using Entry = std::pair<std::uint32_t, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.edge_weights(v);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const std::uint32_t cand = d + wts[e];
      if (cand < dist[nbrs[e]]) {
        dist[nbrs[e]] = cand;
        heap.emplace(cand, nbrs[e]);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> in_degrees(const CsrGraph& g) {
  std::vector<std::uint32_t> deg(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId dst : g.neighbors(v)) ++deg[dst];
  }
  return deg;
}

std::vector<std::uint8_t> kcore_removed(const CsrGraph& g, unsigned k) {
  const VertexId n = g.num_vertices();
  std::vector<std::int64_t> degree(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    degree[v] += g.out_degree(v);
    for (const VertexId dst : g.neighbors(v)) ++degree[dst];
  }
  std::vector<std::uint8_t> removed(n, 0);
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (degree[v] < static_cast<std::int64_t>(k)) queue.push_back(v);
  }
  // Round-synchronous peeling to match the kernel's semantics: a vertex's
  // decrements only take effect for later rounds.
  while (!queue.empty()) {
    std::deque<VertexId> next;
    for (const VertexId v : queue) {
      if (removed[v]) continue;
      removed[v] = 1;
      for (const VertexId dst : g.neighbors(v)) {
        if (!removed[dst]) {
          --degree[dst];
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (!removed[v] && degree[v] < static_cast<std::int64_t>(k)) next.push_back(v);
    }
    queue = std::move(next);
  }
  return removed;
}

std::vector<double> pagerank_scores(const CsrGraph& g, unsigned iterations, double damping) {
  const VertexId n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (unsigned i = 0; i < iterations; ++i) {
    std::fill(next.begin(), next.end(), (1.0 - damping) / static_cast<double>(n));
    for (VertexId v = 0; v < n; ++v) {
      const auto deg = g.out_degree(v);
      if (deg == 0) continue;
      const double share = damping * rank[v] / static_cast<double>(deg);
      for (const VertexId dst : g.neighbors(v)) next[dst] += share;
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<VertexId> component_labels(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> parent(n);
  for (VertexId v = 0; v < n; ++v) parent[v] = v;
  std::function<VertexId(VertexId)> find = [&](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId dst : g.neighbors(v)) {
      const VertexId a = find(v), b = find(dst);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = find(v);
  return label;
}

std::uint64_t triangle_count(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::vector<VertexId>> sorted(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    sorted[v].assign(nbrs.begin(), nbrs.end());
    std::sort(sorted[v].begin(), sorted[v].end());
    sorted[v].erase(std::unique(sorted[v].begin(), sorted[v].end()), sorted[v].end());
  }
  std::uint64_t triangles = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : sorted[v]) {
      if (u <= v) continue;  // ordered pairs only, matching run_triangle_count
      // set intersection |N(v) & N(u)| via std::set_intersection-like count
      std::size_t i = 0, j = 0;
      while (i < sorted[v].size() && j < sorted[u].size()) {
        if (sorted[v][i] == sorted[u][j]) {
          ++triangles;
          ++i;
          ++j;
        } else if (sorted[v][i] < sorted[u][j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  return triangles;
}

}  // namespace reference
}  // namespace coolpim::graph
