// Synthetic graph generators.
//
// The paper evaluates on the LDBC social-network dataset; we stand in with an
// RMAT/Kronecker generator parameterized to produce the same skewed,
// power-law degree structure LDBC graphs exhibit (DESIGN.md section 2).
// Uniform and grid generators provide contrast cases for tests and examples.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace coolpim::graph {

/// Quadrant probabilities a, b and c must each be finite and in [0, 1] with
/// a + b + c <= 1; a weighted graph needs max_weight >= 1.  make_rmat()
/// throws ConfigError naming the field otherwise.
struct RmatParams {
  double a{0.57};
  double b{0.19};
  double c{0.19};
  // d = 1 - a - b - c
  bool scramble_ids{true};  // avoid degree locality artifacts
  bool weighted{true};
  std::uint32_t max_weight{64};  // weights are uniform in [1, max_weight]
};

/// RMAT graph with 2^scale vertices and edge_factor * 2^scale edges.
/// The graph is that of one sequential RNG walk: ID scramble, `scale` draws
/// per edge, then one weight per edge.  The edges are sampled in fixed
/// chunks of 2^16, each started from the walk's state by an RngJump, so the
/// sampling and the CSR build fan out over `pool` when given, with
/// bit-identical output at any jobs count.  The scramble and the weights
/// stay serial.
[[nodiscard]] CsrGraph make_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                                 const RmatParams& params = {},
                                 runner::Pool* pool = nullptr);

/// "LDBC-like" social network: RMAT with LDBC-interactive-like skew.
[[nodiscard]] CsrGraph make_ldbc_like(unsigned scale, std::uint64_t seed,
                                      runner::Pool* pool = nullptr);

/// Erdos-Renyi style uniform random graph (by edge sampling).
[[nodiscard]] CsrGraph make_uniform(VertexId num_vertices, EdgeId num_edges,
                                    std::uint64_t seed, bool weighted = true);

/// 2D grid (4-neighbour torus): regular degrees, zero divergence contrast.
[[nodiscard]] CsrGraph make_grid(VertexId width, VertexId height, bool weighted = true);

}  // namespace coolpim::graph
