// Breadth-first search variants (GraphBIG GPU kernels, functional model).
#include <algorithm>
#include <bit>
#include <utility>

#include "graph/simt.hpp"
#include "graph/workloads.hpp"

namespace coolpim::graph {

std::uint64_t checksum_bytes(const void* data, std::size_t bytes) {
  // FNV-1a, 64-bit.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Instruction-cost constants (warp instructions).  The absolute scale only
// shifts the compute/memory balance; graph kernels stay memory-bound across
// a wide range, matching the paper's bandwidth-saturated setting.
constexpr double kInstrPerEdge = 8.0;
constexpr double kWarpBase = 16.0;

struct BfsTraits {
  Driver driver;
  Parallelism parallelism;
  bool atomic_frontier;  // bfs-ta: frontier bitmap maintained with atomics
};

// Every GraphBIG GPU BFS variant updates the discovered level with an
// unconditional atomicMin per traversed edge (the frontier state is shared
// and racy, so a pre-check cannot be trusted); GraphPIM maps each of those
// atomics to a PIM instruction.  The variants differ in how work is found
// (topology scan vs. frontier queue) and mapped (thread vs. warp).
BfsTraits traits_for(BfsVariant v) {
  switch (v) {
    case BfsVariant::kTopologyAtomic:
      return {Driver::kTopology, Parallelism::kThreadCentric, true};
    case BfsVariant::kTopologyThreadCentric:
      return {Driver::kTopology, Parallelism::kThreadCentric, false};
    case BfsVariant::kTopologyWarpCentric:
      return {Driver::kTopology, Parallelism::kWarpCentric, false};
    case BfsVariant::kDataWarpCentric:
      return {Driver::kData, Parallelism::kWarpCentric, false};
  }
  throw ConfigError("unknown BFS variant");
}

const char* name_for(BfsVariant v) {
  switch (v) {
    case BfsVariant::kTopologyAtomic: return "bfs-ta";
    case BfsVariant::kTopologyThreadCentric: return "bfs-ttc";
    case BfsVariant::kTopologyWarpCentric: return "bfs-twc";
    case BfsVariant::kDataWarpCentric: return "bfs-dwc";
  }
  return "bfs-?";
}

}  // namespace

std::vector<WorkloadProfile> run_bfs(const CsrGraph& g, VertexId source,
                                     std::span<const BfsVariant> variants) {
  COOLPIM_REQUIRE(source < g.num_vertices(), "BFS source out of range");
  const VertexId n = g.num_vertices();
  const std::vector<std::uint32_t>& degree = g.degrees();

  std::vector<BfsTraits> traits;
  std::vector<WorkloadProfile> profiles(variants.size());
  bool any_thread_centric = false;
  for (std::size_t k = 0; k < variants.size(); ++k) {
    const BfsTraits t = traits_for(variants[k]);
    traits.push_back(t);
    any_thread_centric |= t.parallelism == Parallelism::kThreadCentric;
    WorkloadProfile& profile = profiles[k];
    profile.name = name_for(variants[k]);
    profile.driver = t.driver;
    profile.parallelism = t.parallelism;
    profile.atomic_kind = hmc::PimOpcode::kCasGreater;  // atomicMin on the level
    profile.graph_vertices = n;
    profile.graph_edges = g.num_edges();
  }

  std::vector<std::uint32_t> level(n, kUnreached);
  level[source] = 0;

  // All iteration state is hoisted out of the level loop and reused: the
  // frontier queue, the next-frontier bitmap it is rebuilt from, the SIMT
  // work buffers and (thread-centric) the active-warp index list.  Every
  // IterationProfile field is a sum over the frontier *set*, so rebuilding
  // the frontier in ascending id order from the bitmap leaves the profile
  // bit-identical to the push-in-discovery-order path (the only
  // order-sensitive costing, thread-centric warp grouping, is indexed by
  // vertex id, not queue position).
  std::vector<VertexId> frontier{source};
  std::vector<VertexId> next;
  std::vector<std::uint64_t> next_bits((static_cast<std::size_t>(n) + 63) / 64, 0);
  std::vector<std::uint32_t> lane_work;  // thread-centric: dense, one lane per vertex
  std::vector<std::uint32_t> warp_ids;
  std::vector<std::uint32_t> frontier_work;  // warp-centric: one item per frontier vertex
  if (any_thread_centric) lane_work.assign(n, 0);

  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    // The traversal itself: the same for every variant.  Discoveries go to
    // the next-frontier bitmap.
    std::uint64_t edges = 0;
    std::uint64_t discovered = 0;
    for (const VertexId v : frontier) {
      for (const VertexId dst : g.neighbors(v)) {
        ++edges;
        if (level[dst] == kUnreached) {
          level[dst] = depth + 1;
          next_bits[dst >> 6] |= 1ULL << (dst & 63);
          ++discovered;
        }
      }
    }

    // SIMT execution cost: only warps (thread-centric) or lanes
    // (warp-centric) that carry frontier work are visited; the idle rest is
    // folded in closed form (bit-identical to the dense reference costing).
    // Thread-centric variants share one costing.
    SimtCost thread_cost;
    if (any_thread_centric) {
      warp_ids.clear();
      for (const VertexId v : frontier) {
        lane_work[v] = degree[v];
        warp_ids.push_back(v / kWarpSize);
      }
      std::sort(warp_ids.begin(), warp_ids.end());
      warp_ids.erase(std::unique(warp_ids.begin(), warp_ids.end()), warp_ids.end());
      thread_cost = thread_centric_cost_sparse(lane_work, warp_ids, n, kInstrPerEdge, kWarpBase);
      for (const VertexId v : frontier) lane_work[v] = 0;
    }
    frontier_work.clear();
    for (const VertexId v : frontier) frontier_work.push_back(degree[v]);

    for (std::size_t k = 0; k < traits.size(); ++k) {
      const BfsTraits& t = traits[k];
      const bool warp_centric = t.parallelism == Parallelism::kWarpCentric;
      IterationProfile it{};

      // Determine the scan set.
      if (t.driver == Driver::kTopology) {
        it.scanned_vertices = n;
        // Topology scan streams row_ptr and the level array.
        it.struct_scan_bytes += static_cast<std::uint64_t>(n) * (8 + 4);
      } else {
        it.scanned_vertices = frontier.size();
        // Frontier queue read + random row_ptr pair per frontier vertex.
        it.struct_scan_bytes += frontier.size() * 4;
        it.property_reads += 2 * frontier.size();
      }
      it.active_vertices = frontier.size();

      // Every traversed edge reads the destination's vertex-property record
      // and issues the unconditional atomicMin(level[dst], depth+1).
      it.edges_processed = edges;
      it.property_reads += edges;
      it.atomic_ops += edges;
      // col_idx traffic: warp-centric kernels read 32 consecutive edges per
      // load (fully coalesced, 4 B/edge); thread-centric lanes each walk
      // their own edge list, so a 64-byte line is only partially consumed
      // before eviction (~16 effective bytes per 4-byte element).
      it.struct_scan_bytes += edges * (warp_centric ? 4 : 24);

      if (t.driver == Driver::kData) {
        // Enqueue discovered vertices: atomicAdd on the queue tail + store.
        it.atomic_ops += discovered;
        it.property_writes += discovered;
      } else if (t.atomic_frontier) {
        // bfs-ta maintains the next-frontier bitmap with atomic bit writes
        // and scans it alongside the level array every iteration.
        it.atomic_ops += discovered;
        it.struct_scan_bytes += n / 8;
      }

      SimtCost cost;
      if (!warp_centric) {
        cost = thread_cost;
      } else if (t.driver == Driver::kTopology) {
        cost = warp_centric_cost_sparse(frontier_work, n, kInstrPerEdge, kWarpBase);
      } else {
        cost = warp_centric_cost(frontier_work, kInstrPerEdge, kWarpBase);
      }
      it.compute_warp_instructions = cost.warp_instructions;
      it.divergent_warp_ratio = warp_centric ? 0.02  // residual tail divergence only
                                             : cost.divergent_ratio();
      it.work_threads = warp_centric ? it.scanned_vertices * kWarpSize : it.scanned_vertices;

      profiles[k].iterations.push_back(it);
    }

    // Rebuild the frontier from the bitmap (ascending ids), clearing as we go.
    next.clear();
    for (std::size_t w = 0; w < next_bits.size(); ++w) {
      std::uint64_t bits = next_bits[w];
      if (bits == 0) continue;
      next_bits[w] = 0;
      while (bits != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        next.push_back(static_cast<VertexId>((w << 6) | b));
        bits &= bits - 1;
      }
    }
    frontier.swap(next);
    ++depth;
  }

  const std::uint64_t checksum = checksum_vector(level);
  for (auto& profile : profiles) profile.result_checksum = checksum;
  return profiles;
}

WorkloadProfile run_bfs(const CsrGraph& g, VertexId source, BfsVariant variant) {
  return std::move(run_bfs(g, source, std::span{&variant, 1}).front());
}

}  // namespace coolpim::graph
