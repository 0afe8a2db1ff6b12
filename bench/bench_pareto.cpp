// Policy-zoo Pareto sweep, emitted as BENCH_pareto.json (schema
// coolpim-bench-pareto/1).
//
// The zoo's reason to exist is a better throughput / temperature trade-off:
// each registered policy (sys/policy_registry.hpp) runs every GraphBIG scenario
// next to the Non-Offloading baseline, and the JSON records the three Pareto
// axes per run -- throughput (speedup over non-offloading), peak DRAM
// temperature, and delivered warning count -- plus per-policy aggregates
// (geomean speedup, hottest peak, total warnings).
//
// The bench gates (exit 1) on the predictive-policy acceptance contract:
// the MPC policy holds peak DRAM at or below the 85 C normal limit on every
// swept scenario while matching or beating the reactive SW-DynT geomean
// speedup.
//
// Flags: --out FILE (default BENCH_pareto.json), --quick (the three
// hottest workloads instead of the full suite -- dc and pagerank, where
// the reactive controllers run at the warning edge, plus sssp-dwc),
// --scale N (graph scale, default 16 to match the golden matrix).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "sys/policy_registry.hpp"
#include "sys/system.hpp"

#include "perf_support.hpp"

using namespace coolpim;

namespace {

struct ParetoRun {
  std::string workload;
  std::string policy;    // registry cli name ("baseline" for non-offloading)
  std::string scenario;  // display name from the run result
  double exec_ms{0.0};
  double speedup{1.0};
  double peak_dram_c{0.0};
  std::uint64_t warnings{0};
};

struct PolicyAggregate {
  std::string policy;
  double geomean_speedup{1.0};
  double max_peak_dram_c{0.0};
  std::uint64_t total_warnings{0};
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args{argc, argv, {"--out", "--scale"}, {"--quick"}};
  const std::string out = args.value("--out", "BENCH_pareto.json");
  const bool quick = args.flag("--quick");
  const unsigned scale = args.number("--scale", 16);

  const std::vector<std::string> workloads =
      quick ? std::vector<std::string>{"dc", "pagerank", "sssp-dwc"} : sys::workload_names();

  std::cout << "Pareto sweep: " << workloads.size() << " workloads x "
            << std::size(sys::kRegisteredPolicies)
            << " policies (+ baseline) at scale " << scale << "...\n";
  bench::StopWatch build_clock;
  const sys::WorkloadSet set{scale, 1};
  const double build_ms = build_clock.elapsed_ms();

  // One baseline plus one run per registered policy, per workload.  The
  // runner derives every run's seed from its (workload, config) key, so the
  // sweep is bit-identical at any COOLPIM_JOBS value.
  std::vector<runner::Experiment> experiments;
  std::vector<std::string> policy_of;  // parallel to `experiments`
  for (const auto& w : workloads) {
    runner::Experiment base;
    base.workload = w;
    base.config.scenario = sys::Scenario::kNonOffloading;
    experiments.push_back(std::move(base));
    policy_of.emplace_back("baseline");
    for (const sys::PolicyInfo& info : sys::kRegisteredPolicies) {
      runner::Experiment e;
      e.workload = w;
      e.config.scenario = info.scenario;
      experiments.push_back(std::move(e));
      policy_of.emplace_back(info.cli_name);
    }
  }
  bench::StopWatch sweep_clock;
  const auto results = runner::run_sweep(set, experiments);
  const double sweep_ms = sweep_clock.elapsed_ms();

  // Baseline execution time per workload, then the per-run Pareto points.
  std::map<std::string, double> baseline_ms;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (policy_of[i] == "baseline") {
      baseline_ms[experiments[i].workload] = results[i].exec_time.as_ms();
    }
  }
  std::vector<ParetoRun> runs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    ParetoRun p;
    p.workload = experiments[i].workload;
    p.policy = policy_of[i];
    p.scenario = r.scenario;
    p.exec_ms = r.exec_time.as_ms();
    p.speedup = p.exec_ms > 0.0 ? baseline_ms.at(p.workload) / p.exec_ms : 1.0;
    p.peak_dram_c = r.peak_dram_temp.value();
    p.warnings = r.thermal_warnings;
    runs.push_back(std::move(p));
  }

  // Per-policy aggregates across the workload suite.
  std::vector<PolicyAggregate> aggregates;
  for (const sys::PolicyInfo& info : sys::kRegisteredPolicies) {
    PolicyAggregate agg;
    agg.policy = info.cli_name;
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const auto& r : runs) {
      if (r.policy != agg.policy) continue;
      log_sum += std::log(r.speedup);
      ++n;
      agg.max_peak_dram_c = std::max(agg.max_peak_dram_c, r.peak_dram_c);
      agg.total_warnings += r.warnings;
    }
    agg.geomean_speedup = n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 1.0;
    aggregates.push_back(std::move(agg));
  }
  auto find_agg = [&](const char* policy) -> const PolicyAggregate& {
    for (const auto& a : aggregates) {
      if (a.policy == policy) return a;
    }
    std::cerr << "bench_pareto: policy '" << policy << "' missing from registry\n";
    std::exit(1);
  };

  // Acceptance gate: predictive throttling must dominate the reactive
  // controller it replaces -- never hotter than the warning ceiling, never
  // slower in aggregate.
  const double threshold_c = sys::SystemConfig{}.policy.normal_limit.value();
  const PolicyAggregate& mpc = find_agg("mpc");
  const PolicyAggregate& reactive = find_agg("sw-dynt");
  const bool peak_ok = mpc.max_peak_dram_c <= threshold_c;
  const bool throughput_ok = mpc.geomean_speedup >= reactive.geomean_speedup;
  const bool pass = peak_ok && throughput_ok;

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-pareto/1");
  json.kv("quick", quick);
  json.kv("scale", static_cast<std::uint64_t>(scale));
  json.kv("threshold_c", threshold_c);
  json.kv("workload_build_ms", build_ms);
  json.kv("sweep_wall_ms", sweep_ms);
  json.begin_array("runs");
  for (const auto& r : runs) {
    json.begin_object();
    json.kv("workload", r.workload);
    json.kv("policy", r.policy);
    json.kv("scenario", r.scenario);
    json.kv("exec_ms", r.exec_ms);
    json.kv("speedup", r.speedup);
    json.kv("peak_dram_c", r.peak_dram_c);
    json.kv("warnings", r.warnings);
    json.end();
  }
  json.end();
  json.begin_array("policies");
  for (const auto& a : aggregates) {
    json.begin_object();
    json.kv("policy", a.policy);
    json.kv("geomean_speedup", a.geomean_speedup);
    json.kv("max_peak_dram_c", a.max_peak_dram_c);
    json.kv("total_warnings", a.total_warnings);
    json.end();
  }
  json.end();
  json.begin_object("gate");
  json.kv("mpc_max_peak_dram_c", mpc.max_peak_dram_c);
  json.kv("mpc_geomean_speedup", mpc.geomean_speedup);
  json.kv("reactive_geomean_speedup", reactive.geomean_speedup);
  json.kv("peak_under_threshold", peak_ok);
  json.kv("throughput_at_least_reactive", throughput_ok);
  json.kv("pass", pass);
  json.end();
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "bench_pareto: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  for (const auto& a : aggregates) {
    std::cout << a.policy << ": geomean speedup " << a.geomean_speedup << ", max peak "
              << a.max_peak_dram_c << " C, " << a.total_warnings << " warnings\n";
  }
  std::cout << "Gate: MPC peak " << mpc.max_peak_dram_c << " C vs " << threshold_c
            << " C, geomean " << mpc.geomean_speedup << " vs reactive "
            << reactive.geomean_speedup << " -> " << (pass ? "PASS" : "FAIL") << "\n"
            << "Results written to " << out << "\n";
  return pass ? 0 : 1;
}
