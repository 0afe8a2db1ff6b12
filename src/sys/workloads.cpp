#include "sys/workloads.hpp"

#include <cstdlib>
#include <optional>
#include <span>
#include <utility>

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

std::optional<graph::BfsVariant> bfs_variant(const std::string& name) {
  using graph::BfsVariant;
  if (name == "bfs-ta") return BfsVariant::kTopologyAtomic;
  if (name == "bfs-dwc") return BfsVariant::kDataWarpCentric;
  if (name == "bfs-ttc") return BfsVariant::kTopologyThreadCentric;
  if (name == "bfs-twc") return BfsVariant::kTopologyWarpCentric;
  return std::nullopt;
}

std::optional<graph::SsspVariant> sssp_variant(const std::string& name) {
  using graph::SsspVariant;
  if (name == "sssp-dtc") return SsspVariant::kDataThreadCentric;
  if (name == "sssp-dwc") return SsspVariant::kDataWarpCentric;
  if (name == "sssp-twc") return SsspVariant::kTopologyWarpCentric;
  return std::nullopt;
}

/// The traversal a workload's profile comes from: the BFS variants share
/// one, and so do the SSSP variants; every other workload has its own.
std::string traversal_of(const std::string& name) {
  if (bfs_variant(name)) return "bfs";
  if (sssp_variant(name)) return "sssp";
  return name;
}

/// Profiles of `names`, which all share one traversal, in order.
std::vector<graph::WorkloadProfile> run_traversal(const graph::CsrGraph& g,
                                                  graph::VertexId source,
                                                  std::span<const std::string> names) {
  const std::string traversal = traversal_of(names.front());
  if (traversal == "bfs") {
    std::vector<graph::BfsVariant> variants;
    for (const auto& name : names) variants.push_back(*bfs_variant(name));
    return graph::run_bfs(g, source, variants);
  }
  if (traversal == "sssp") {
    std::vector<graph::SsspVariant> variants;
    for (const auto& name : names) variants.push_back(*sssp_variant(name));
    return graph::run_sssp(g, source, variants);
  }
  if (traversal == "dc") return {graph::run_degree_centrality(g)};
  if (traversal == "kcore") return {graph::run_kcore(g)};
  if (traversal == "pagerank") return {graph::run_pagerank(g)};
  if (traversal == "cc") return {graph::run_connected_components(g)};
  if (traversal == "tc") return {graph::run_triangle_count(g)};
  throw ConfigError("unknown workload: " + traversal);
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
    // One task per traversal, in name order: each run of consecutive names
    // that share a traversal (the four BFS variants, the three SSSP
    // variants) is one task.  Each task writes its own pre-sized slots, so
    // output order is the name-list order regardless of completion order,
    // and every task is a pure function of the shared const graph: the
    // profiles (checksums included) are bit-identical at any jobs count.
    // The tasks are not reordered by cost: submitting the longest first
    // raised peak RSS (glibc arenas keep the freed profiling buffers).
    std::vector<std::size_t> task_begin;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i == 0 || traversal_of(names[i]) != traversal_of(names[i - 1])) task_begin.push_back(i);
    }
    task_begin.push_back(names.size());
    profiles_.resize(names.size());
    pool.parallel_for(task_begin.size() - 1, [&](std::size_t t) {
      const std::size_t begin = task_begin[t];
      auto computed = run_traversal(graph_, source,
                                    std::span{names}.subspan(begin, task_begin[t + 1] - begin));
      for (std::size_t k = 0; k < computed.size(); ++k) {
        profiles_[begin + k] = std::move(computed[k]);
      }
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
