#include "sys/workloads.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "graph/generator.hpp"
#include "graph/workloads.hpp"
#include "obs/counters.hpp"
#include "obs/names.hpp"
#include "runner/pool.hpp"
#include "sys/profile_cache.hpp"

namespace coolpim::sys {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "dc",       "kcore",    "pagerank", "bfs-ta",   "bfs-dwc",
      "bfs-ttc",  "bfs-twc",  "sssp-dtc", "sssp-dwc", "sssp-twc",
  };
  return names;
}

const std::vector<std::string>& extended_workload_names() {
  static const std::vector<std::string> names{"cc", "tc"};
  return names;
}

namespace {

graph::WorkloadProfile compute_profile(const graph::CsrGraph& g, graph::VertexId source,
                                       const std::string& name) {
  using graph::BfsVariant;
  using graph::SsspVariant;
  if (name == "dc") return graph::run_degree_centrality(g);
  if (name == "kcore") return graph::run_kcore(g);
  if (name == "pagerank") return graph::run_pagerank(g);
  if (name == "bfs-ta") return graph::run_bfs(g, source, BfsVariant::kTopologyAtomic);
  if (name == "bfs-dwc") return graph::run_bfs(g, source, BfsVariant::kDataWarpCentric);
  if (name == "bfs-ttc") return graph::run_bfs(g, source, BfsVariant::kTopologyThreadCentric);
  if (name == "bfs-twc") return graph::run_bfs(g, source, BfsVariant::kTopologyWarpCentric);
  if (name == "sssp-dtc") return graph::run_sssp(g, source, SsspVariant::kDataThreadCentric);
  if (name == "sssp-dwc") return graph::run_sssp(g, source, SsspVariant::kDataWarpCentric);
  if (name == "sssp-twc") return graph::run_sssp(g, source, SsspVariant::kTopologyWarpCentric);
  if (name == "cc") return graph::run_connected_components(g);
  if (name == "tc") return graph::run_triangle_count(g);
  throw ConfigError("unknown workload: " + name);
}

/// A cache entry is only trusted if it describes exactly this set: same
/// workload names in the same order, captured on a graph of the same
/// dimensions.  (Payload corruption is already rejected by the file's hash
/// trailer; this guards semantic staleness, e.g. a key collision or an entry
/// from a differently-shaped build.)
bool cached_profiles_usable(const std::vector<graph::WorkloadProfile>& cached,
                            const std::vector<std::string>& names,
                            const graph::CsrGraph& g) {
  if (cached.size() != names.size()) return false;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    if (cached[i].name != names[i]) return false;
    if (cached[i].graph_vertices != g.num_vertices()) return false;
    if (cached[i].graph_edges != g.num_edges()) return false;
  }
  return true;
}

std::string resolve_cache_dir(const WorkloadSet::BuildOptions& options) {
  if (!options.use_cache) return {};
  if (!options.cache_dir.empty()) return options.cache_dir;
  if (const char* env = std::getenv("COOLPIM_PROFILE_CACHE"); env && *env) return env;
  return {};
}

}  // namespace

WorkloadSet::WorkloadSet(unsigned scale, std::uint64_t seed, bool include_extended)
    : WorkloadSet{scale, seed, include_extended, BuildOptions{}} {}

WorkloadSet::WorkloadSet(unsigned scale, std::uint64_t seed, bool include_extended,
                         const BuildOptions& options)
    : scale_{scale}, seed_{seed} {
  std::vector<std::string> names = workload_names();
  if (include_extended) {
    const auto& ext = extended_workload_names();
    names.insert(names.end(), ext.begin(), ext.end());
  }

  // The CSR build and the profiling runs share one pool.
  runner::Pool pool{options.jobs};
  stats_.jobs = pool.size();

  graph_ = graph::make_ldbc_like(scale, seed, &pool);

  // Traverse from the highest-degree vertex (standard practice for RMAT
  // graphs, where random vertices are often isolated).
  const graph::VertexId source = graph_.max_degree_vertex();

  const std::string cache_dir = resolve_cache_dir(options);
  const std::uint64_t key = profile_cache_key(scale, seed, include_extended);

  bool loaded = false;
  if (!cache_dir.empty()) {
    std::vector<graph::WorkloadProfile> cached;
    if (load_profiles(cache_dir, key, cached) &&
        cached_profiles_usable(cached, names, graph_)) {
      profiles_ = std::move(cached);
      stats_.cache_hits = profiles_.size();
      loaded = true;
    } else {
      stats_.cache_misses = 1;
    }
  }

  if (!loaded) {
    // Each run writes its own pre-sized slot: output order is the name-list
    // order regardless of completion order, and every run is a pure function
    // of the shared const graph, so the profiles (checksums included) are
    // bit-identical at any jobs count.
    profiles_.resize(names.size());
    pool.parallel_for(names.size(), [&](std::size_t i) {
      profiles_[i] = compute_profile(graph_, source, names[i]);
    });
    stats_.profiles_computed = names.size();
    if (!cache_dir.empty()) stats_.cache_stored = save_profiles(cache_dir, key, profiles_);
  }

  index_.reserve(profiles_.size());
  for (std::size_t i = 0; i < profiles_.size(); ++i) index_.emplace(profiles_[i].name, i);

  if (options.counters) {
    options.counters->counter(obs::names::kGraphProfileCacheHits).add(stats_.cache_hits);
    options.counters->counter(obs::names::kGraphProfileCacheMisses).add(stats_.cache_misses);
    options.counters->counter(obs::names::kGraphProfilesComputed).add(stats_.profiles_computed);
  }
}

const graph::WorkloadProfile& WorkloadSet::profile(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) throw ConfigError("unknown workload: " + name);
  return profiles_[it->second];
}

}  // namespace coolpim::sys
