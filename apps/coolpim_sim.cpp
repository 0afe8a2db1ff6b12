// coolpim_sim -- command-line front end for the full-system simulator.
//
// Shared run knobs (scale, jobs, seed, observability sinks, the --fault-*
// fault environment) resolve through sys::RunConfig with precedence
// CLI > COOLPIM_* environment > default; `coolpim_sim --help` lists them.
// App-specific options:
//     --workload NAME     dc|kcore|pagerank|bfs-ta|bfs-dwc|bfs-ttc|bfs-twc|
//                         sssp-dtc|sssp-dwc|sssp-twc|cc|tc|all   (default dc)
//     --scenario NAME     baseline|naive|coolpim-sw|coolpim-hw|ideal|
//                         bw-throttle|mpc|policy-table|all
//                         (or pick one policy for every run with --policy)
//     --cooling NAME      passive|low-end|commodity|high-end (default commodity)
//     --cf N              control factor (blocks for SW, warps for HW)
//     --target RATE       PIM-rate budget in op/ns      (default 1.3)
//     --pei               PEI-style coherent offloading instead of GraphPIM
//     --timeline          print the PIM-rate/temperature time series
//     --seed N            graph seed (alias for --graph-seed)
//     --csv FILE          write the summary table as CSV
//
// Tracing is strictly read-only: summary/timeline/CSV output is byte-for-byte
// identical with or without --trace/--counters, at any --jobs value.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "common/table.hpp"
#include "obs/observer.hpp"
#include "runner/experiment.hpp"
#include "sys/report.hpp"
#include "sys/run_config.hpp"
#include "sys/system.hpp"

using namespace coolpim;

namespace {

struct CliOptions {
  /// Shared knobs (scale, jobs, graph seed, trace/counters, fault layer).
  sys::RunConfig rc;
  std::vector<std::string> workloads{"dc"};
  std::vector<sys::Scenario> scenarios{std::begin(sys::kAllScenarios),
                                       std::end(sys::kAllScenarios)};
  power::CoolingType cooling{power::CoolingType::kCommodityServer};
  std::optional<std::uint32_t> control_factor;
  double target{1.3};
  bool pei{false};
  bool timeline{false};
  std::string csv_path;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: coolpim_sim [--workload NAME|all]\n"
      "                   [--scenario baseline|naive|coolpim-sw|coolpim-hw|ideal|\n"
      "                               bw-throttle|mpc|policy-table|all]\n"
      "                   [--cooling passive|low-end|commodity|high-end] [--cf N]\n"
      "                   [--target OP_PER_NS] [--pei] [--timeline] [--seed N]\n"
      "                   [--csv FILE] [shared run flags]\n"
      "shared run flags (CLI > COOLPIM_* env > default):\n"
      << sys::RunConfig::flags_help();
  std::exit(msg ? 2 : 0);
}

std::vector<sys::Scenario> parse_scenarios(const std::string& s) {
  if (s == "all") return {std::begin(sys::kAllScenarios), std::end(sys::kAllScenarios)};
  if (s == "baseline") return {sys::Scenario::kNonOffloading};
  if (s == "naive") return {sys::Scenario::kNaiveOffloading};
  if (s == "coolpim-sw") return {sys::Scenario::kCoolPimSw};
  if (s == "coolpim-hw") return {sys::Scenario::kCoolPimHw};
  if (s == "ideal") return {sys::Scenario::kIdealThermal};
  if (s == "bw-throttle") return {sys::Scenario::kBwThrottle};
  if (s == "mpc") return {sys::Scenario::kMpc};
  if (s == "policy-table") return {sys::Scenario::kPolicyTable};
  usage(("unknown scenario: " + s).c_str());
}

power::CoolingType parse_cooling(const std::string& s) {
  if (s == "passive") return power::CoolingType::kPassive;
  if (s == "low-end") return power::CoolingType::kLowEndActive;
  if (s == "commodity") return power::CoolingType::kCommodityServer;
  if (s == "high-end") return power::CoolingType::kHighEndActive;
  usage(("unknown cooling: " + s).c_str());
}

CliOptions parse(int argc, char** argv, sys::RunConfig rc) {
  CliOptions opt;
  opt.rc = std::move(rc);
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage();
    else if (arg == "--workload") {
      const std::string v = need_value(i);
      if (v == "all") {
        opt.workloads = sys::workload_names();
      } else {
        opt.workloads = {v};
      }
    } else if (arg == "--scenario") {
      opt.scenarios = parse_scenarios(need_value(i));
    } else if (arg == "--seed") {
      // Historical alias for --graph-seed.
      opt.rc.graph_seed = sys::parse_u64(arg, need_value(i).c_str());
    } else if (arg == "--cooling") {
      opt.cooling = parse_cooling(need_value(i));
    } else if (arg == "--cf") {
      const std::uint64_t cf = sys::parse_u64(arg, need_value(i).c_str());
      if (cf > UINT32_MAX) usage("cf out of range");
      opt.control_factor = static_cast<std::uint32_t>(cf);
    } else if (arg == "--target") {
      opt.target = sys::parse_double(arg, need_value(i).c_str());
      if (opt.target <= 0.0) usage("target must be positive");
    } else if (arg == "--pei") {
      opt.pei = true;
    } else if (arg == "--timeline") {
      opt.timeline = true;
    } else if (arg == "--csv") {
      opt.csv_path = need_value(i);
    } else {
      usage(("unknown option: " + arg).c_str());
    }
  }
  return opt;
}

void print_timeline(const sys::RunResult& r) {
  if (r.pim_rate.empty()) return;
  Table t{"Timeline: " + r.workload + " / " + r.scenario};
  t.header({"t (ms)", "PIM rate (op/ns)", "Peak DRAM (C)", "Link data (GB/s)"});
  const std::size_t points = 20;
  const Time start = r.pim_rate.time_at(0);
  const Time step = r.exec_time / static_cast<std::int64_t>(points);
  for (std::size_t i = 0; i < points; ++i) {
    const Time when = start + step * static_cast<std::int64_t>(i);
    if (when > r.pim_rate.times().back()) break;
    t.row({Table::num((step * static_cast<std::int64_t>(i)).as_ms(), 2),
           Table::num(r.pim_rate.sample_at(when), 2),
           Table::num(r.dram_temp.sample_at(when), 1),
           Table::num(r.link_bw.sample_at(when), 0)});
  }
  t.print(std::cout);
}

int run(int argc, char** argv) {
  // Shared knobs first: --scale/--jobs/--trace/... are stripped from argv
  // before the app-specific parse sees the remainder.
  sys::RunConfig rc;
  try {
    rc = sys::RunConfig::resolve(&argc, argv);
  } catch (const ConfigError& e) {
    usage(e.what());
  }
  const CliOptions opt = parse(argc, argv, std::move(rc));

  // cc/tc need the extended registry.
  bool extended = false;
  for (const auto& w : opt.workloads) extended |= (w == "cc" || w == "tc");
  std::cout << "Building LDBC-like graph (scale " << opt.rc.scale << ", seed "
            << opt.rc.graph_seed << ") and workload profiles...\n";
  // Same jobs knob as the sweep; results are identical at any value.
  const sys::WorkloadSet set{opt.rc.scale, opt.rc.graph_seed, extended,
                             opt.rc.build_options()};
  if (set.build_stats().cache_hits > 0) {
    std::cout << "Profiles served from COOLPIM_PROFILE_CACHE ("
              << set.build_stats().cache_hits << " workloads).\n";
  }

  // Every (workload, scenario) pair is an independent task for the parallel
  // runner; results come back in submission order regardless of jobs.
  std::vector<runner::Experiment> experiments;
  for (const auto& workload : opt.workloads) {
    for (const auto scenario : opt.scenarios) {
      runner::Experiment e;
      e.workload = workload;
      e.config.scenario = scenario;
      e.config.cooling = opt.cooling;
      e.config.target_rate_op_per_ns = opt.target;
      opt.rc.apply_to(e.config);
      if (opt.control_factor) {
        e.config.sw_control_factor = *opt.control_factor;
        e.config.hw_control_factor = *opt.control_factor;
      }
      if (opt.pei) e.config.gpu.offload_policy = gpu::OffloadPolicy::kCoherentWriteback;
      experiments.push_back(std::move(e));
    }
  }
  runner::RunOptions run_opt;
  run_opt.jobs = opt.rc.jobs;
  std::optional<obs::SweepObserver> observer;
  if (!opt.rc.trace_path.empty() || !opt.rc.counters_path.empty()) {
    observer.emplace();
    run_opt.obs = &*observer;
  }
  const std::vector<sys::RunResult> runs = runner::run_sweep(set, experiments, run_opt);

  Table summary{"coolpim_sim results"};
  summary.header({"Workload", "Scenario", "Exec (ms)", "BW (GB/s)", "PIM rate",
                  "Peak DRAM (C)", "Warnings", "Energy (mJ)"});
  for (const auto& r : runs) {
    summary.row({r.workload, r.scenario, Table::num(r.exec_time.as_ms(), 2),
                 Table::num(r.avg_link_data_gbps(), 1),
                 Table::num(r.avg_pim_rate_op_per_ns(), 2),
                 Table::num(r.peak_dram_temp.value(), 1),
                 std::to_string(r.thermal_warnings),
                 Table::num(r.total_energy_j() * 1e3, 1)});
  }
  summary.print(std::cout);

  if (opt.timeline) {
    for (const auto& r : runs) print_timeline(r);
  }
  if (!opt.csv_path.empty()) {
    std::ofstream out{opt.csv_path};
    if (!out) {
      std::cerr << "error: cannot open " << opt.csv_path << " for writing\n";
      return 1;
    }
    sys::write_summary_csv(out, runs);
    std::cout << "Summary CSV written to " << opt.csv_path << "\n";
  }
  if (!opt.rc.trace_path.empty()) {
    std::ofstream out{opt.rc.trace_path};
    if (!out) {
      std::cerr << "error: cannot open " << opt.rc.trace_path << " for writing\n";
      return 1;
    }
    observer->write_trace(out);
    std::cout << "Trace written to " << opt.rc.trace_path
              << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  if (!opt.rc.counters_path.empty()) {
    std::ofstream out{opt.rc.counters_path};
    if (!out) {
      std::cerr << "error: cannot open " << opt.rc.counters_path << " for writing\n";
      return 1;
    }
    observer->write_counters_csv(out);
    std::cout << "Counter CSV written to " << opt.rc.counters_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A ConfigError past argument parsing (an unknown workload, a run that
  // exceeds max_time) exits 2 naming the problem instead of aborting.
  try {
    return run(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
