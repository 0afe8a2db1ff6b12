// GraphBIG-style GPU graph workloads, implemented functionally with full
// instrumentation (paper Section V: GraphBIG benchmark suite on LDBC data).
//
// Each run_* function executes the algorithm and returns a WorkloadProfile:
// the functional result checksum plus per-kernel-launch instruction/memory/
// atomic counts that the GPU timing model replays.  The BFS variants share
// one traversal, and so do the SSSP variants: only the accounting and the
// SIMT costing depend on the variant, so run_bfs/run_sssp take a list of
// variants and return one profile per variant from a single traversal (the
// single-variant forms are wrappers).  Variant naming follows the paper's
// Fig. 10 labels:
//   bfs-ta   topology-driven, thread-centric, blind atomic per edge
//   bfs-ttc  topology-driven, thread-centric, check-then-atomic
//   bfs-twc  topology-driven, warp-centric
//   bfs-dwc  data-driven (frontier), warp-centric
//   sssp-dtc data-driven, thread-centric
//   sssp-dwc data-driven, warp-centric
//   sssp-twc topology-driven, warp-centric
//   dc       degree centrality (single atomic-heavy pass)
//   kcore    iterative k-core decomposition (low PIM intensity)
//   pagerank push-style power iteration with FP atomic adds
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/profile.hpp"

namespace coolpim::graph {

enum class BfsVariant { kTopologyAtomic, kTopologyThreadCentric, kTopologyWarpCentric,
                        kDataWarpCentric };
enum class SsspVariant { kDataThreadCentric, kDataWarpCentric, kTopologyWarpCentric };

/// One traversal from `source`; profile k describes variants[k].
[[nodiscard]] std::vector<WorkloadProfile> run_bfs(const CsrGraph& g, VertexId source,
                                                   std::span<const BfsVariant> variants);
[[nodiscard]] std::vector<WorkloadProfile> run_sssp(const CsrGraph& g, VertexId source,
                                                    std::span<const SsspVariant> variants);
[[nodiscard]] WorkloadProfile run_bfs(const CsrGraph& g, VertexId source, BfsVariant variant);
[[nodiscard]] WorkloadProfile run_sssp(const CsrGraph& g, VertexId source, SsspVariant variant);
[[nodiscard]] WorkloadProfile run_pagerank(const CsrGraph& g, unsigned iterations = 10);
[[nodiscard]] WorkloadProfile run_degree_centrality(const CsrGraph& g);
[[nodiscard]] WorkloadProfile run_kcore(const CsrGraph& g, unsigned k = 16);

// Extension workloads (GraphBIG members beyond the paper's evaluation set).
[[nodiscard]] WorkloadProfile run_connected_components(const CsrGraph& g);
[[nodiscard]] WorkloadProfile run_triangle_count(const CsrGraph& g);

/// Checksum helper shared by workloads and tests (FNV-1a over raw bytes).
[[nodiscard]] std::uint64_t checksum_bytes(const void* data, std::size_t bytes);

template <typename T>
[[nodiscard]] std::uint64_t checksum_vector(const std::vector<T>& v) {
  return checksum_bytes(v.data(), v.size() * sizeof(T));
}

inline constexpr std::uint32_t kUnreached = 0xffffffffu;

}  // namespace coolpim::graph
