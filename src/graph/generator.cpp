#include "graph/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "runner/pool.hpp"

namespace coolpim::graph {

namespace {

/// Edges per sampling chunk: a constant, so the chunking -- and with it
/// every jump -- is the same at any jobs count.
constexpr EdgeId kEdgesPerChunk = EdgeId{1} << 16;

std::vector<std::uint32_t> random_weights(Rng& rng, std::size_t n, std::uint32_t max_weight) {
  std::vector<std::uint32_t> w(n);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.next_in(1, max_weight));
  return w;
}

void require_probability(double p, const char* field) {
  COOLPIM_REQUIRE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                  std::string{"rmat "} + field + " must be a probability in [0, 1]");
}

}  // namespace

CsrGraph make_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                   const RmatParams& params, runner::Pool* pool) {
  COOLPIM_REQUIRE(scale >= 1 && scale <= 30, "rmat scale out of range");
  require_probability(params.a, "a");
  require_probability(params.b, "b");
  require_probability(params.c, "c");
  const double d = 1.0 - params.a - params.b - params.c;
  COOLPIM_REQUIRE(d >= 0.0, "rmat probabilities must sum to <= 1");
  COOLPIM_REQUIRE(!params.weighted || params.max_weight >= 1, "rmat max_weight must be >= 1");

  const auto n = static_cast<VertexId>(1u << scale);
  const auto m = static_cast<EdgeId>(edge_factor) * n;
  Rng rng{seed};

  // Optional ID scramble so high-degree vertices are not clustered at 0.
  // Serial: next_below() may reject a draw, so its draw count is known only
  // once it has run.
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  if (params.scramble_ids) {
    for (VertexId i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[static_cast<VertexId>(rng.next_below(i + 1))]);
    }
  }

  // Quadrant selection in the integer domain.  next_double() is exactly
  // (next_u64() >> 11) * 2^-53 and multiplying a double threshold by 2^53 is
  // exact (pure exponent shift), so `r < t` over doubles is equivalent to
  // `u < ceil(t * 2^53)` over the raw 53-bit draw.  With b, c >= 0 the
  // thresholds are ordered lo_a <= lo_ab <= lo_abc, so "bottom half within
  // the chosen column" (u >= lo_a when sx = 0, u >= lo_abc when sx = 1) is
  // (u >= lo_a) ^ sx ^ (u >= lo_abc), without a table load.
  const auto lo_a = static_cast<std::uint64_t>(std::ceil(params.a * 0x1p53));
  const auto lo_ab = static_cast<std::uint64_t>(std::ceil((params.a + params.b) * 0x1p53));
  const auto lo_abc =
      static_cast<std::uint64_t>(std::ceil((params.a + params.b + params.c) * 0x1p53));

  // Edge e consumes draws [e * scale, (e + 1) * scale) after the scramble.
  // Chunk c starts from that state jumped by c * kEdgesPerChunk * scale
  // draws, so the chunks sample in parallel and still produce the edges,
  // in order, of one sequential walk.
  const std::size_t chunks = static_cast<std::size_t>((m + kEdgesPerChunk - 1) / kEdgesPerChunk);
  std::vector<Rng> chunk_rng(chunks, rng);
  if (chunks > 1) {
    const RngJump next_chunk{static_cast<__uint128_t>(kEdgesPerChunk) * scale};
    for (std::size_t c = 1; c < chunks; ++c) {
      chunk_rng[c] = chunk_rng[c - 1];
      chunk_rng[c].advance(next_chunk);
    }
  }
  std::vector<std::pair<VertexId, VertexId>> edges(m);
  const auto sample = [&](std::size_t c) {
    Rng r = chunk_rng[c];  // a local copy: neighbouring chunks' states share cache lines
    const EdgeId lo = static_cast<EdgeId>(c) * kEdgesPerChunk;
    const EdgeId hi = std::min(m, lo + kEdgesPerChunk);
    for (EdgeId e = lo; e < hi; ++e) {
      VertexId src = 0, dst = 0;
      for (unsigned bit = 0; bit < scale; ++bit) {
        const std::uint64_t u = r.next_u64() >> 11;
        const unsigned sx = u >= lo_ab;  // right half (quadrants c/d)
        const unsigned sy = static_cast<unsigned>(u >= lo_a) ^ sx ^
                            static_cast<unsigned>(u >= lo_abc);  // bottom half
        src = (src << 1) | sx;
        dst = (dst << 1) | sy;
      }
      edges[e] = {src, dst};
    }
    if (params.scramble_ids) {
      for (EdgeId e = lo; e < hi; ++e) edges[e] = {perm[edges[e].first], perm[edges[e].second]};
    }
    chunk_rng[c] = r;
  };
  if (pool != nullptr) {
    pool->parallel_for(chunks, sample);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) sample(c);
  }

  // Weights follow the last edge's draws, where the last chunk's generator
  // stopped.  Serial, like the scramble: next_in() may reject a draw unless
  // the span is a power of two.
  std::vector<std::uint32_t> weights;
  if (params.weighted) {
    if (chunks > 0) rng = chunk_rng.back();
    weights = random_weights(rng, edges.size(), params.max_weight);
  }
  return CsrGraph::from_edges(n, std::move(edges), std::move(weights), pool);
}

CsrGraph make_ldbc_like(unsigned scale, std::uint64_t seed, runner::Pool* pool) {
  // LDBC interactive "knows" graphs average ~16-30 neighbours with a strongly
  // skewed tail; RMAT at edge factor 16 with the Graph500 parameters matches
  // the degree skew graph workloads are sensitive to.
  return make_rmat(scale, 16, seed, {}, pool);
}

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

}  // namespace coolpim::graph
