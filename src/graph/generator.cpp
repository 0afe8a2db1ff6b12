#include "graph/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "common/target_clones.hpp"
#include "graph/csr_build.hpp"
#include "runner/pool.hpp"

namespace coolpim::graph {

namespace {

/// Edges per sampling chunk: a constant, so the chunking -- and with it
/// every jump -- is the same at any jobs count.
constexpr EdgeId kEdgesPerChunk = EdgeId{1} << 16;

/// Chunks the sampler walks side by side, one per 64-bit vector lane.
constexpr std::size_t kLanes = 4;

/// Edges per lane the counting pass samples before it counts them, so the
/// count increments overlap one another instead of waiting on the draws.
constexpr std::size_t kCountBlock = 256;

/// One 64-bit word per lane.
typedef std::uint64_t Words __attribute__((vector_size(32)));

/// Four generators side by side: s[w][l] is state word w of lane l.
struct LaneStates {
  std::uint64_t s[4][kLanes];
};

/// The quadrant thresholds over the raw 53-bit draw u, each stored less
/// one: for lo <= 2^53, u >= lo exactly when (lo - 1 - u) mod 2^64 has its
/// top bit set, a subtraction and a shift in any vector unit (SSE2 has no
/// 64-bit compare).  Also the draws per edge.
struct Quadrants {
  std::uint64_t a;    // ceil(a * 2^53) - 1
  std::uint64_t ab;   // ceil((a + b) * 2^53) - 1
  std::uint64_t abc;  // ceil((a + b + c) * 2^53) - 1
  unsigned scale;
};

/// Walk `edges` edges in every lane, each exactly as the sequential walk
/// draws them, and write lane l's e-th source (and destination when kDst)
/// to src[l * stride + e] (dst[...]), before the ID scramble.  Every lane
/// walks the same count; the caller ignores what a lane writes past the
/// end of a short chunk, or at all when the lane has no chunk.
template <bool kDst>
[[gnu::always_inline]] inline void sample_lanes(LaneStates& st, const Quadrants& q,
                                                std::size_t edges, VertexId* src,
                                                VertexId* dst, std::size_t stride) {
  Words s0{}, s1{}, s2{}, s3{};
  std::memcpy(&s0, st.s[0], sizeof s0);
  std::memcpy(&s1, st.s[1], sizeof s1);
  std::memcpy(&s2, st.s[2], sizeof s2);
  std::memcpy(&s3, st.s[3], sizeof s3);
  const Words a = Words{} + q.a;
  const Words ab = Words{} + q.ab;
  const Words abc = Words{} + q.abc;
  for (std::size_t e = 0; e < edges; ++e) {
    Words x{}, y{};
    for (unsigned bit = 0; bit < q.scale; ++bit) {
      Words out{};
      Rng::step(s0, s1, s2, s3, out);
      const Words u = out >> 11;
      const Words right = (ab - u) >> 63;  // u >= lo_ab: quadrant c or d
      x = (x << 1) | right;
      if constexpr (kDst) y = (y << 1) | (((a - u) >> 63) ^ right ^ ((abc - u) >> 63));
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      src[l * stride + e] = static_cast<VertexId>(x[l]);
      if constexpr (kDst) dst[l * stride + e] = static_cast<VertexId>(y[l]);
    }
  }
  std::memcpy(st.s[0], &s0, sizeof s0);
  std::memcpy(st.s[1], &s1, sizeof s1);
  std::memcpy(st.s[2], &s2, sizeof s2);
  std::memcpy(st.s[3], &s3, sizeof s3);
}

COOLPIM_STENCIL_CLONES
void sample_sources(LaneStates& st, const Quadrants& q, std::size_t edges, VertexId* src,
                    std::size_t stride) {
  sample_lanes<false>(st, q, edges, src, nullptr, stride);
}

COOLPIM_STENCIL_CLONES
void sample_edges(LaneStates& st, const Quadrants& q, std::size_t edges, VertexId* src,
                  VertexId* dst, std::size_t stride) {
  sample_lanes<true>(st, q, edges, src, dst, stride);
}

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
  const auto less_one = [](double t) {
    return static_cast<std::uint64_t>(std::ceil(t * 0x1p53)) - 1;  // wraps for t = 0
  };
  const Quadrants quadrants{less_one(params.a), less_one(params.a + params.b),
                            less_one(params.a + params.b + params.c), scale};

  // Edge e consumes draws [e * scale, (e + 1) * scale) after the scramble.
  // Chunk c starts from that state jumped by c * kEdgesPerChunk * scale
  // draws, so the chunks sample in parallel and still produce the edges,
  // in order, of one sequential walk.
  const std::size_t chunks = static_cast<std::size_t>((m + kEdgesPerChunk - 1) / kEdgesPerChunk);
  const auto chunk_edges = [&](std::size_t c) {
    return static_cast<std::size_t>(std::min(kEdgesPerChunk, m - c * kEdgesPerChunk));
  };
  std::vector<Rng> chunk_rng(chunks, rng);
  if (chunks > 1) {
    const RngJump next_chunk{static_cast<__uint128_t>(kEdgesPerChunk) * scale};
    for (std::size_t c = 1; c < chunks; ++c) {
      chunk_rng[c] = chunk_rng[c - 1];
      chunk_rng[c].advance(next_chunk);
    }
  }

  // The weights follow the last edge's draws, m * scale draws after the
  // scramble, one next_in() per edge.  It may reject a draw unless the span
  // is a power of two, so a serial walk of the weight draws records where
  // each chunk's weights start (48 bytes a chunk).
  std::vector<Rng> weight_rng;
  if (params.weighted && chunks > 0) {
    Rng w = rng;
    w.advance(RngJump{static_cast<__uint128_t>(m) * scale});
    weight_rng.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      weight_rng.push_back(w);
      for (std::size_t e = chunk_edges(c); e > 0; --e) (void)w.next_in(1, params.max_weight);
    }
  }

  // One contiguous group of chunks per pool participant (one on the caller
  // without a pool), walked kLanes chunks at a time.  A lane set's lanes
  // past the group's last chunk walk from a zero state, ignored.
  const std::size_t groups =
      std::min<std::size_t>(pool != nullptr ? pool->size() : 1, chunks);
  const auto first_chunk = [&](std::size_t g) { return g * chunks / groups; };
  struct LaneSet {
    LaneStates states{};
    std::array<std::size_t, kLanes> edges{};  // 0 for a lane with no chunk
    std::size_t longest{0};
  };
  const auto lane_set = [&](std::size_t c, std::size_t end) {
    LaneSet set;
    for (std::size_t l = 0; l < kLanes && c + l < end; ++l) {
      const auto& s = chunk_rng[c + l].state();
      for (std::size_t w = 0; w < 4; ++w) set.states.s[w][l] = s[w];
      set.edges[l] = chunk_edges(c + l);
      set.longest = std::max(set.longest, set.edges[l]);
    }
    return set;
  };

  // Two passes over the same draws, and no edge list: the first counts
  // each group's sources block by block, the second samples a lane set
  // again into a per-group buffer (2 MiB) and scatters its lanes one after
  // another, drawing each edge's weight as it goes, so every source keeps
  // the walk's order.  Both key the edges by their pre-scramble source;
  // build_csr maps keys to vertices once per vertex, not once per edge.
  detail::EdgeGroups sampled;
  sampled.groups = groups;
  sampled.weighted = params.weighted;
  sampled.vertex_of_key = perm;
  sampled.count = [&](std::size_t g, EdgeId* count) {
    std::array<VertexId, kLanes * kCountBlock> block{};
    const std::size_t end = first_chunk(g + 1);
    for (std::size_t c = first_chunk(g); c < end; c += kLanes) {
      LaneSet set = lane_set(c, end);
      for (std::size_t base = 0; base < set.longest; base += kCountBlock) {
        const std::size_t len = std::min(kCountBlock, set.longest - base);
        sample_sources(set.states, quadrants, len, block.data(), kCountBlock);
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t valid = set.edges[l] > base ? std::min(len, set.edges[l] - base) : 0;
          for (std::size_t e = 0; e < valid; ++e) ++count[block[l * kCountBlock + e]];
        }
      }
    }
  };
  sampled.scatter = [&](std::size_t g, const detail::CsrCursors& out) {
    const std::size_t stride = chunk_edges(0);
    std::vector<VertexId> src(kLanes * stride), dst(kLanes * stride);
    const std::size_t end = first_chunk(g + 1);
    for (std::size_t c = first_chunk(g); c < end; c += kLanes) {
      LaneSet set = lane_set(c, end);
      sample_edges(set.states, quadrants, set.longest, src.data(), dst.data(), stride);
      for (std::size_t l = 0; l < kLanes && c + l < end; ++l) {
        const VertexId* const from = src.data() + l * stride;
        const VertexId* const to = dst.data() + l * stride;
        Rng w = out.weights != nullptr ? weight_rng[c + l] : Rng{};
        for (std::size_t e = 0; e < set.edges[l]; ++e) {
          const EdgeId pos = out.next[from[e]]++;
          out.col_idx[pos] = perm[to[e]];
          if (out.weights != nullptr) {
            out.weights[pos] = static_cast<std::uint32_t>(w.next_in(1, params.max_weight));
          }
        }
      }
    }
  };
  return detail::build_csr(n, sampled, pool);
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
