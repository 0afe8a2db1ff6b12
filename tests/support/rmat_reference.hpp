// Test-support oracle for graph::make_rmat: the sequential edge walk the
// chunked, jump-ahead sampler must reproduce bit for bit (docs/PERFORMANCE.md
// section 5).  Linked by test_generator, never by a library under src/.
#pragma once

#include <cstdint>

#include "graph/generator.hpp"

namespace coolpim::graph {

/// One Rng walked front to back: the Fisher-Yates ID scramble, then `scale`
/// draws per edge (each picks a quadrant through an indexed threshold
/// table), then one next_in(1, max_weight) per edge weight.  CSR built
/// without a pool.  Expects parameters make_rmat() accepts.
[[nodiscard]] CsrGraph reference_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                                      const RmatParams& params = {});

}  // namespace coolpim::graph
