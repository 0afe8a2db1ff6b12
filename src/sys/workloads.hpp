// Workload registry: the paper's ten GraphBIG workloads on the LDBC-like
// graph, generated and profiled once and shared across scenario runs.
//
// Construction is the profiling fast path: the CSR build fans out over a
// runner::Pool, the traversal source comes from the cached degree table, and
// the independent workload profiling runs execute in parallel into fixed
// output slots -- bit-identical to a jobs = 1 build (serial CSR, one
// workload after another) at any jobs count.  With COOLPIM_PROFILE_CACHE=<dir> set (or BuildOptions::cache_dir),
// profiles are loaded from / saved to a persistent content-addressed cache
// (sys/profile_cache.hpp) and warm runs skip the functional kernels
// entirely.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/profile.hpp"

namespace coolpim::obs {
class CounterRegistry;
}  // namespace coolpim::obs

namespace coolpim::sys {

/// The Fig. 10 workload order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Extension workloads available beyond the paper's evaluation set.
[[nodiscard]] const std::vector<std::string>& extended_workload_names();

class WorkloadSet {
 public:
  struct BuildOptions {
    /// Profiling/CSR-build parallelism; 0 = runner::Pool::default_jobs()
    /// (COOLPIM_JOBS, else hardware concurrency).
    unsigned jobs{0};
    /// Consult the persistent profile cache.  The directory comes from
    /// `cache_dir` if non-empty, else the COOLPIM_PROFILE_CACHE environment
    /// variable; if neither is set the cache is silently off.
    bool use_cache{true};
    std::string cache_dir{};
    /// Optional sink for graph/profile_cache_hits, graph/profile_cache_misses
    /// and graph/profiles_computed counters.
    obs::CounterRegistry* counters{nullptr};
  };

  /// What construction actually did (cache behaviour, kernel work).
  struct BuildStats {
    std::uint64_t cache_hits{0};        // profiles served from the cache
    std::uint64_t cache_misses{0};      // cache consulted but unusable
    std::uint64_t profiles_computed{0}; // functional kernel runs executed
    bool cache_stored{false};           // a fresh entry was written
    unsigned jobs{1};                   // pool width used
  };

  /// Build the LDBC-like graph at `scale` (2^scale vertices, edge factor 16)
  /// and profile all ten paper workloads on it; `include_extended` adds the
  /// cc/tc extension workloads.
  explicit WorkloadSet(unsigned scale = 19, std::uint64_t seed = 1,
                       bool include_extended = false);
  WorkloadSet(unsigned scale, std::uint64_t seed, bool include_extended,
              const BuildOptions& options);

  [[nodiscard]] const graph::CsrGraph& graph() const { return graph_; }
  [[nodiscard]] const graph::WorkloadProfile& profile(const std::string& name) const;
  [[nodiscard]] const std::vector<graph::WorkloadProfile>& all() const { return profiles_; }
  [[nodiscard]] unsigned scale() const { return scale_; }
  /// Graph-generation seed; part of the identity the parallel runner hashes.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const BuildStats& build_stats() const { return stats_; }

 private:
  unsigned scale_;
  std::uint64_t seed_;
  graph::CsrGraph graph_;
  std::vector<graph::WorkloadProfile> profiles_;
  std::unordered_map<std::string, std::size_t> index_;
  BuildStats stats_;
};

}  // namespace coolpim::sys
