// Single-source shortest paths (Bellman-Ford rounds, GraphBIG style).
#include <algorithm>
#include <utility>

#include "graph/simt.hpp"
#include "graph/workloads.hpp"

namespace coolpim::graph {

namespace {
constexpr double kInstrPerEdge = 10.0;  // weight load + add + min
constexpr double kWarpBase = 16.0;

struct SsspTraits {
  Driver driver;
  Parallelism parallelism;
};

SsspTraits traits_for(SsspVariant v) {
  switch (v) {
    case SsspVariant::kDataThreadCentric: return {Driver::kData, Parallelism::kThreadCentric};
    case SsspVariant::kDataWarpCentric: return {Driver::kData, Parallelism::kWarpCentric};
    case SsspVariant::kTopologyWarpCentric: return {Driver::kTopology, Parallelism::kWarpCentric};
  }
  throw ConfigError("unknown SSSP variant");
}

const char* name_for(SsspVariant v) {
  switch (v) {
    case SsspVariant::kDataThreadCentric: return "sssp-dtc";
    case SsspVariant::kDataWarpCentric: return "sssp-dwc";
    case SsspVariant::kTopologyWarpCentric: return "sssp-twc";
  }
  return "sssp-?";
}

}  // namespace

std::vector<WorkloadProfile> run_sssp(const CsrGraph& g, VertexId source,
                                      std::span<const SsspVariant> variants) {
  COOLPIM_REQUIRE(source < g.num_vertices(), "SSSP source out of range");
  COOLPIM_REQUIRE(g.has_weights(), "SSSP needs edge weights");
  const VertexId n = g.num_vertices();
  const std::vector<std::uint32_t>& degree = g.degrees();

  std::vector<SsspTraits> traits;
  std::vector<WorkloadProfile> profiles(variants.size());
  for (std::size_t k = 0; k < variants.size(); ++k) {
    const SsspTraits t = traits_for(variants[k]);
    traits.push_back(t);
    WorkloadProfile& profile = profiles[k];
    profile.name = name_for(variants[k]);
    profile.driver = t.driver;
    profile.parallelism = t.parallelism;
    profile.atomic_kind = hmc::PimOpcode::kCasGreater;  // atomicMin on the distance
    profile.graph_vertices = n;
    profile.graph_edges = g.num_edges();
  }

  std::vector<std::uint32_t> dist(n, kUnreached);
  dist[source] = 0;

  // Unlike BFS, the next frontier stays a push queue: the data-driven
  // thread-centric variant (sssp-dtc) groups frontier entries into warps by
  // *queue position*, so discovery order is part of the profile and a
  // bitmap rebuild (which sorts by vertex id) would change the warp
  // grouping.  The queue, the dedup bitmap and the SIMT work buffer are all
  // hoisted and reused across rounds instead.
  std::vector<VertexId> frontier{source};
  std::vector<VertexId> next;
  std::vector<std::uint8_t> in_next(n, 0);
  std::vector<std::uint32_t> work;

  while (!frontier.empty()) {
    // The relaxation round itself: the same for every variant.
    std::uint64_t edges = 0;
    for (const VertexId v : frontier) {
      const auto nbrs = g.neighbors(v);
      const auto wts = g.edge_weights(v);
      const std::uint32_t dv = dist[v];
      edges += nbrs.size();
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const VertexId dst = nbrs[e];
        const std::uint32_t cand = dv + wts[e];
        if (cand < dist[dst]) {
          dist[dst] = cand;
          if (!in_next[dst]) {
            in_next[dst] = 1;
            next.push_back(dst);
          }
        }
      }
    }
    work.clear();
    for (const VertexId v : frontier) work.push_back(degree[v]);

    for (std::size_t k = 0; k < traits.size(); ++k) {
      const SsspTraits& t = traits[k];
      const bool warp_centric = t.parallelism == Parallelism::kWarpCentric;
      IterationProfile it{};

      if (t.driver == Driver::kTopology) {
        it.scanned_vertices = n;
        it.struct_scan_bytes += static_cast<std::uint64_t>(n) * (8 + 4 + 1);  // row_ptr/dist/flag
      } else {
        it.scanned_vertices = frontier.size();
        it.struct_scan_bytes += frontier.size() * 4;
        it.property_reads += 2 * frontier.size();
      }
      it.active_vertices = frontier.size();

      // Each frontier vertex reads its own distance; each edge reads the
      // destination's vertex-property record and, as in GraphBIG, relaxes
      // it with an unconditional atomicMin.
      it.edges_processed = edges;
      it.property_reads += frontier.size() + edges;
      it.atomic_ops += edges;
      // col_idx + weight traffic, with the thread-centric coalescing penalty
      // (see bfs.cpp): 4+4 B/edge coalesced, ~4x that when lanes walk
      // independent edge lists.
      it.struct_scan_bytes += edges * (warp_centric ? (4 + 4) : (24 + 24));

      if (t.driver == Driver::kData) {
        it.atomic_ops += next.size();     // queue tail atomicAdd
        it.property_writes += next.size();
      }

      // SIMT cost.  Topology rounds visit only frontier lanes and fold the
      // idle remainder in closed form; data-driven rounds cost the
      // queue-ordered frontier directly (it is already sparse).
      SimtCost cost;
      if (t.driver == Driver::kTopology) {
        cost = warp_centric_cost_sparse(work, n, kInstrPerEdge, kWarpBase);
      } else {
        cost = warp_centric ? warp_centric_cost(work, kInstrPerEdge, kWarpBase)
                            : thread_centric_cost(work, kInstrPerEdge, kWarpBase);
      }
      it.compute_warp_instructions = cost.warp_instructions;
      it.divergent_warp_ratio = warp_centric ? 0.02 : cost.divergent_ratio();
      it.work_threads = warp_centric ? it.scanned_vertices * kWarpSize : it.scanned_vertices;

      profiles[k].iterations.push_back(it);
    }

    for (const VertexId v : next) in_next[v] = 0;
    frontier.swap(next);
    next.clear();
  }

  const std::uint64_t checksum = checksum_vector(dist);
  for (auto& profile : profiles) profile.result_checksum = checksum;
  return profiles;
}

WorkloadProfile run_sssp(const CsrGraph& g, VertexId source, SsspVariant variant) {
  return std::move(run_sssp(g, source, std::span{&variant, 1}).front());
}

}  // namespace coolpim::graph
