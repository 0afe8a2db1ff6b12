#include "support.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <unordered_set>

#include "obs/observer.hpp"
#include "runner/experiment.hpp"

namespace coolpim::bench {

namespace {

/// Single mutable slot behind run_config(): COOLPIM_* environment at first
/// use, --flags overlaid by init_observability() before anything consumes it.
sys::RunConfig& mutable_run_config() {
  static sys::RunConfig rc = sys::RunConfig::from_env();
  return rc;
}

/// Process-wide observability sink shared by every run the bench issues.
/// Output files are flushed from the destructor at normal process exit.
struct ObsState {
  std::optional<obs::SweepObserver> obs;
  /// Experiment keys already recorded; repeats of a run are served from the
  /// result cache instead of being re-traced.
  std::unordered_set<std::uint64_t> seen;

  ObsState() { refresh(); }

  void refresh() {
    const auto& rc = mutable_run_config();
    if (!obs && (!rc.trace_path.empty() || !rc.counters_path.empty())) {
      obs.emplace();
    }
  }

  ~ObsState() {
    if (!obs) return;
    const auto& rc = mutable_run_config();
    if (!rc.trace_path.empty()) {
      std::ofstream out{rc.trace_path};
      if (out) {
        obs->write_trace(out);
        std::cerr << "Trace written to " << rc.trace_path << "\n";
      }
    }
    if (!rc.counters_path.empty()) {
      std::ofstream out{rc.counters_path};
      if (out) {
        obs->write_counters_csv(out);
        std::cerr << "Counter CSV written to " << rc.counters_path << "\n";
      }
    }
  }
};

ObsState& obs_state() {
  static ObsState state;
  return state;
}

/// Benches inherit the process fault environment unless the caller brought
/// its own (a bench sweeping fault rates sets them explicitly on `base`).
sys::SystemConfig with_process_faults(sys::SystemConfig base) {
  if (!base.fault.enabled()) run_config().apply_to(base);
  return base;
}

}  // namespace

const sys::RunConfig& run_config() { return mutable_run_config(); }

void init_observability(int* argc, char** argv) {
  auto& rc = mutable_run_config();
  rc = sys::RunConfig::from_args(argc, argv, rc);
  obs_state().refresh();
}

unsigned bench_scale() { return run_config().scale; }

const sys::WorkloadSet& workloads() {
  static const sys::WorkloadSet set{bench_scale(), run_config().graph_seed, false,
                                    run_config().build_options()};
  return set;
}

sys::RunResult run_one(const std::string& workload, sys::Scenario scenario,
                       const sys::SystemConfig& base) {
  // Routed through the runner so a bench binary whose tables repeat a
  // (workload, scenario, config) triple -- typically a shared baseline --
  // runs it once.
  const sys::SystemConfig cfg = with_process_faults(base);
  runner::RunOptions opt;
  opt.jobs = run_config().jobs;
  auto& state = obs_state();
  if (state.obs) {
    sys::SystemConfig keyed = cfg;
    keyed.scenario = scenario;
    if (state.seen.insert(runner::experiment_key(workloads(), workload, keyed)).second) {
      opt.obs = &*state.obs;
    }
  }
  return runner::run_one(workloads(), workload, scenario, cfg, opt);
}

const std::vector<ScenarioRow>& scenario_matrix() {
  static const std::vector<ScenarioRow> matrix = [] {
    const std::vector<sys::Scenario> scenarios{std::begin(sys::kAllScenarios),
                                               std::end(sys::kAllScenarios)};
    const sys::SystemConfig cfg = with_process_faults({});
    runner::RunOptions opt;
    opt.jobs = run_config().jobs;
    auto& state = obs_state();
    if (state.obs) {
      opt.obs = &*state.obs;
      // Mark every matrix cell as recorded so later run_one() calls on the
      // same experiments reuse the cache instead of re-tracing.
      for (const auto& w : sys::workload_names()) {
        for (const auto s : scenarios) {
          sys::SystemConfig keyed = cfg;
          keyed.scenario = s;
          state.seen.insert(runner::experiment_key(workloads(), w, keyed));
        }
      }
    }
    auto computed =
        runner::run_matrix(workloads(), sys::workload_names(), scenarios, cfg, opt);
    std::vector<ScenarioRow> rows;
    rows.reserve(computed.size());
    for (auto& r : computed) {
      rows.push_back(ScenarioRow{std::move(r.workload), std::move(r.runs)});
    }
    return rows;
  }();
  return matrix;
}

}  // namespace coolpim::bench
