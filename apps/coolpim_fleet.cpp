// coolpim_fleet -- command-line front end for the fleet tier (docs/FLEET.md).
//
// Drives N GPU+HMC nodes under an open-loop Poisson (or trace-replay)
// request stream and prints per-node and fleet-level results.  Shared knobs
// (--fleet-nodes, --arrival-rate, --balancer, --scale, --jobs, --policy,
// --trace/--counters, the --fault-* family is ignored at this tier) resolve
// through sys::RunConfig; `coolpim_fleet --help` lists everything.
// App-specific options:
//     --duration-ms X     fleet clock horizon (default 1000)
//     --rack-spread-c X   linear rack ambient gradient, degC (default 10)
//     --queue-cap N       per-node queue capacity (default 32)
//     --synthetic         built-in service profiles (skip workload profiling)
//     --arrival-trace F   replay arrivals from CSV `time_ms,workload`
//     --mark-every N      counter-mark cadence in epochs (default 50)
//
// Without --synthetic, service profiles are measured: each request class is
// one single-node run of {pagerank, dc, bfs-ta, sssp-dtc} under the node
// policy (--policy, default hw-dynt), through the parallel runner's
// key/seed/cache path.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fleet/fleet.hpp"
#include "obs/observer.hpp"
#include "runner/experiment.hpp"
#include "sys/run_config.hpp"
#include "sys/system.hpp"

using namespace coolpim;

namespace {

constexpr double kIdleC = 35.0;  // profile heat reference (docs/FLEET.md)

struct CliOptions {
  sys::RunConfig rc;
  double duration_ms{1000.0};
  double rack_spread_c{10.0};
  std::size_t queue_cap{32};
  bool synthetic{false};
  std::string arrival_trace;
  std::uint32_t mark_every{50};
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr << "usage: coolpim_fleet [--duration-ms X] [--rack-spread-c X] [--queue-cap N]\n"
               "                     [--synthetic] [--arrival-trace FILE] [--mark-every N]\n"
               "                     [shared run flags]\n"
               "shared run flags (CLI > COOLPIM_* env > default):\n"
            << sys::RunConfig::flags_help();
  std::exit(msg ? 2 : 0);
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
    else if (arg == "--duration-ms") opt.duration_ms = sys::parse_double(arg, need_value(i).c_str());
    else if (arg == "--rack-spread-c") opt.rack_spread_c = sys::parse_double(arg, need_value(i).c_str());
    else if (arg == "--queue-cap") opt.queue_cap = sys::parse_u64(arg, need_value(i).c_str());
    else if (arg == "--synthetic") opt.synthetic = true;
    else if (arg == "--arrival-trace") opt.arrival_trace = need_value(i);
    else if (arg == "--mark-every") {
      const std::uint64_t every = sys::parse_u64(arg, need_value(i).c_str());
      if (every > UINT32_MAX) usage("mark-every out of range");
      opt.mark_every = static_cast<std::uint32_t>(every);
    } else usage(("unknown option: " + arg).c_str());
  }
  if (opt.duration_ms <= 0.0) usage("duration-ms must be positive");
  if (opt.queue_cap == 0) usage("queue-cap must be positive");
  return opt;
}

std::vector<fleet::ServiceProfile> measured_profiles(const CliOptions& opt) {
  const std::vector<std::string> classes{"pagerank", "dc", "bfs-ta", "sssp-dtc"};
  std::cout << "Profiling request classes at scale " << opt.rc.scale << " under policy "
            << (opt.rc.policy.empty() ? "hw-dynt" : opt.rc.policy) << "...\n";
  const sys::WorkloadSet set{opt.rc.scale, opt.rc.graph_seed, /*include_extended=*/false,
                             opt.rc.build_options()};
  std::vector<runner::Experiment> experiments;
  for (const auto& w : classes) {
    runner::Experiment e;
    e.workload = w;
    e.config.scenario = sys::Scenario::kCoolPimHw;
    opt.rc.apply_to(e.config);
    experiments.push_back(std::move(e));
  }
  runner::RunOptions run_opt;
  run_opt.jobs = opt.rc.jobs;
  return fleet::profiles_from_runs(runner::run_sweep(set, experiments, run_opt), kIdleC);
}

int run(int argc, char** argv) {
  sys::RunConfig rc;
  try {
    rc = sys::RunConfig::resolve(&argc, argv);
  } catch (const ConfigError& e) {
    usage(e.what());
  }
  const CliOptions opt = parse(argc, argv, std::move(rc));

  fleet::FleetConfig cfg;
  cfg.nodes = opt.rc.fleet_nodes;
  cfg.node.ambient_c = kIdleC;
  cfg.node.queue_capacity = opt.queue_cap;
  cfg.rack_ambient_spread_c = opt.rack_spread_c;
  cfg.balancer = opt.rc.balancer;
  cfg.arrival_rate_per_s = opt.rc.arrival_rate;
  cfg.duration_ms = opt.duration_ms;
  cfg.trace_path = opt.arrival_trace;
  cfg.jobs = opt.rc.jobs;
  cfg.counter_mark_every = opt.mark_every;
  cfg.profiles = opt.synthetic ? fleet::synthetic_profiles() : measured_profiles(opt);
  if (opt.rc.stack_layers > 0) {
    // Grid fidelity: every node advances its own 3-D stack (docs/FLEET.md);
    // 16-high and taller uses the ADI kernel, the geometry the explicit
    // stable dt collapses on.
    cfg.thermal = fleet::ThermalFidelity::kGrid;
    cfg.grid.dram_dies = opt.rc.stack_layers;
  }

  obs::RunObserver observer;
  const bool observing = !opt.rc.trace_path.empty() || !opt.rc.counters_path.empty();
  if (observing) cfg.observer = &observer;

  fleet::FleetResult result;
  try {
    result = fleet::run_fleet(cfg);
  } catch (const ConfigError& e) {
    usage(e.what());
  }

  Table nodes{"Fleet nodes (" + cfg.balancer + ", " +
              std::to_string(static_cast<unsigned>(cfg.arrival_rate_per_s)) + " req/s)"};
  nodes.header({"Node", "Served", "Warnings", "Peak DRAM (C)", "Final (C)", "Busy (%)"});
  for (const auto& n : result.nodes) {
    nodes.row({std::to_string(n.index), std::to_string(n.served), std::to_string(n.warnings),
               Table::num(n.peak_c, 1), Table::num(n.final_c, 1),
               Table::num(100.0 * n.busy_ms / result.duration_ms, 1)});
  }
  nodes.print(std::cout);

  Table totals{"Fleet totals"};
  totals.header({"Arrived", "Served", "Shed", "Deferrals", "In-flight", "p50 (ms)", "p99 (ms)",
                 "Agg op/ns", "Max peak (C)"});
  totals.row({std::to_string(result.arrived), std::to_string(result.served),
              std::to_string(result.shed), std::to_string(result.deferrals),
              std::to_string(result.in_flight), Table::num(result.p50_latency_ms, 2),
              Table::num(result.p99_latency_ms, 2), Table::num(result.agg_op_per_ns(), 2),
              Table::num(result.max_node_peak_c, 1)});
  totals.print(std::cout);

  if (!opt.rc.trace_path.empty()) {
    std::ofstream out{opt.rc.trace_path};
    if (!out) {
      std::cerr << "error: cannot open " << opt.rc.trace_path << " for writing\n";
      return 1;
    }
    obs::write_chrome_trace(out, {{0, "fleet", &observer.trace_buffer}});
    std::cout << "Trace written to " << opt.rc.trace_path << "\n";
  }
  if (!opt.rc.counters_path.empty()) {
    std::ofstream out{opt.rc.counters_path};
    if (!out) {
      std::cerr << "error: cannot open " << opt.rc.counters_path << " for writing\n";
      return 1;
    }
    out << "t_ms,kind,counter,value\n";
    for (const auto& mark : observer.counters.marks()) {
      for (const auto& [name, value] : mark.values) {
        const auto slash = name.find('/');
        out << mark.when.as_ms() << ',' << name.substr(0, slash) << ','
            << name.substr(slash + 1) << ',' << value << '\n';
      }
    }
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
