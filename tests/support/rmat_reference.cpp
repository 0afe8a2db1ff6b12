#include "support/rmat_reference.hpp"

#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace coolpim::graph {

CsrGraph reference_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                        const RmatParams& params) {
  const auto n = static_cast<VertexId>(1u << scale);
  const auto m = static_cast<EdgeId>(edge_factor) * n;
  Rng rng{seed};

  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  if (params.scramble_ids) {
    for (VertexId i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[static_cast<VertexId>(rng.next_below(i + 1))]);
    }
  }

  // r < t over next_double() is u < ceil(t * 2^53) over the raw 53-bit draw.
  const auto tab = static_cast<std::uint64_t>(std::ceil((params.a + params.b) * 0x1p53));
  const std::uint64_t quadrant_lo[2] = {
      static_cast<std::uint64_t>(std::ceil(params.a * 0x1p53)),
      static_cast<std::uint64_t>(std::ceil((params.a + params.b + params.c) * 0x1p53))};
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    VertexId src = 0, dst = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const std::uint64_t u = rng.next_u64() >> 11;
      const unsigned sx = u >= tab;
      const unsigned sy = u >= quadrant_lo[sx];
      src = (src << 1) | sx;
      dst = (dst << 1) | sy;
    }
    edges.emplace_back(perm[src], perm[dst]);
  }

  std::vector<std::uint32_t> weights;
  if (params.weighted) {
    weights.resize(edges.size());
    for (auto& w : weights) w = static_cast<std::uint32_t>(rng.next_in(1, params.max_weight));
  }
  return CsrGraph::from_edges(n, std::move(edges), std::move(weights));
}

}  // namespace coolpim::graph
