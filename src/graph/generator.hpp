// Synthetic graph generator.
//
// The paper evaluates on the LDBC social-network dataset; we stand in with an
// RMAT/Kronecker generator parameterized to produce the same skewed,
// power-law degree structure LDBC graphs exhibit (DESIGN.md section 2).
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
/// chunks of 2^16, each started from the walk's state by an RngJump, four
/// chunks per vector.  They are never held as a list: one pass counts the
/// sources, a second draws the same edges again and scatters each one, with
/// its weight, straight into the CSR.  Both passes fan out over `pool` when
/// given, with bit-identical output at any jobs count.  The scramble and a
/// walk of the weight draws that finds where each chunk's weights start
/// stay serial.
[[nodiscard]] CsrGraph make_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                                 const RmatParams& params = {},
                                 runner::Pool* pool = nullptr);

/// "LDBC-like" social network: RMAT with LDBC-interactive-like skew.
[[nodiscard]] CsrGraph make_ldbc_like(unsigned scale, std::uint64_t seed,
                                      runner::Pool* pool = nullptr);

}  // namespace coolpim::graph
