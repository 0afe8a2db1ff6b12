// Shared infrastructure for the reproduction benches: every bench binary
// prints its paper table/figure (some then run google-benchmark micro
// measurements), so `for b in build/bench/*; do $b; done` regenerates the
// whole evaluation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sys/run_config.hpp"
#include "sys/system.hpp"

namespace coolpim::bench {

/// The process-wide run configuration: COOLPIM_* environment at first use,
/// with any --flags overlaid by init_observability().  Every bench knob
/// (scale, jobs, observability sinks, fault environment) resolves through
/// this one sys::RunConfig.
[[nodiscard]] const sys::RunConfig& run_config();

/// Graph scale used by the full-system benches (run_config().scale, clamped
/// to the bench-supported [8, 24] range; override with COOLPIM_SCALE).
[[nodiscard]] unsigned bench_scale();

/// Lazily-built workload set shared within one bench process.
[[nodiscard]] const sys::WorkloadSet& workloads();

/// Results of one workload across all scenarios in sys::kAllScenarios.
struct ScenarioRow {
  std::string workload;
  std::map<sys::Scenario, sys::RunResult> runs;

  [[nodiscard]] const sys::RunResult& at(sys::Scenario s) const { return runs.at(s); }
  [[nodiscard]] double speedup(sys::Scenario s) const {
    return at(sys::Scenario::kNonOffloading).exec_time / at(s).exec_time;
  }
  [[nodiscard]] double normalized_consumption(sys::Scenario s) const {
    return at(s).consumption_bytes() /
           at(sys::Scenario::kNonOffloading).consumption_bytes();
  }
};

/// Run every workload under every scenario (the Fig. 10-13 matrix) across
/// the parallel runner (jobs = COOLPIM_JOBS or all cores; results are
/// bit-identical at any jobs count).  Cached for the lifetime of the process.
[[nodiscard]] const std::vector<ScenarioRow>& scenario_matrix();

/// Run a single (workload, scenario) pair with an optionally tweaked config.
/// Served from the process-wide result cache when the matrix already ran it.
[[nodiscard]] sys::RunResult run_one(const std::string& workload, sys::Scenario scenario,
                                     const sys::SystemConfig& base = {});

/// Observability for bench binaries: call first in main() to strip
/// `--trace FILE` / `--counters FILE` from argv (before
/// benchmark::Initialize swallows the argument list); the COOLPIM_TRACE /
/// COOLPIM_COUNTERS environment variables work for any bench without the
/// call.  Each *distinct* experiment the bench runs is recorded once (keyed
/// by runner::experiment_key, so a baseline several tables share is served
/// from the result cache instead of re-traced), and the files are written
/// when the process exits.  Schema: docs/OBSERVABILITY.md.
void init_observability(int* argc, char** argv);

}  // namespace coolpim::bench
