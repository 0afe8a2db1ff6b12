// End-to-end benchmark binary: runs one workload of the repository benchmark
// (bench/e2e/README.md) through the simulator's public API and prints every
// metric as one `name value unit` line.  bench/e2e/run.py builds this binary,
// checks its per-experiment results and emits the benchmark's JSON summary.
//
// Each workload is a closed loop: `clients` threads each take the next
// experiment of the workload's list, run it with runner::run_one (result
// cache off) and only then take another, cycling through the list.  Untraced
// mode (--trace 0) times that loop for --seconds after one untimed warm-up
// experiment and always completes at least one full cycle, so every
// experiment is checked.  Traced mode (--trace 1) runs one cycle in which
// each experiment runs twice: untraced, then traced by driving
// sys::SystemRun directly, wrapping each public call in a wall-clock span and
// attaching an obs::RunObserver for the deterministic work counters.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gpu/characterize.hpp"
#include "graph/generator.hpp"
#include "hmc/backend.hpp"
#include "hmc/link_model.hpp"
#include "obs/names.hpp"
#include "power/energy_model.hpp"
#include "runner/experiment.hpp"
#include "runner/pool.hpp"
#include "sys/system_run.hpp"
#include "sys/workloads.hpp"
#include "thermal/hmc_thermal.hpp"

#include "span_log.hpp"

using namespace coolpim;

namespace {

constexpr const char* kUsage =
    "usage: e2e_bench --workload fig10-matrix|fig14-transient|pim-vault|large-graph\n"
    "                  [--seed N] [--seconds S] [--trace 0|1] [--scale N]\n"
    "                  [--results FILE] [--trace-out FILE]\n";

struct Workload {
  std::string_view name;
  unsigned scale;
  unsigned clients;       // closed-loop clients; also the WorkloadSet build jobs
  unsigned setup_builds;  // WorkloadSet builds per untraced run; setup_s is their median
  std::vector<sys::Scenario> scenarios;
  sys::SystemConfig base;
};

std::vector<Workload> all_workloads() {
  using sys::Scenario;
  std::vector<Workload> out;

  Workload matrix{"fig10-matrix", 18, 2, 5, {}, {}};
  matrix.scenarios.assign(std::begin(sys::kAllScenarios), std::end(sys::kAllScenarios));
  out.push_back(matrix);

  Workload transient{"fig14-transient", 18, 1, 5,
                     {Scenario::kNaiveOffloading, Scenario::kCoolPimSw, Scenario::kCoolPimHw},
                     {}};
  transient.base.warm_start = false;
  transient.base.start_temp_override = 84.0;
  out.push_back(transient);

  Workload vault{"pim-vault", 18, 2, 5, {Scenario::kNaiveOffloading, Scenario::kCoolPimHw}, {}};
  vault.base.backend = hmc::BackendKind::kPimVault;
  out.push_back(vault);

  out.push_back(Workload{"large-graph", 20, 2, 3, {Scenario::kCoolPimHw}, {}});
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  unsigned scale{0};  // 0 = the workload's own scale
  std::string results;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "e2e_bench: " << message << "\n" << kUsage;
  std::exit(2);
}

std::uint64_t parse_uint(std::string_view flag, std::string_view text, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < lo || v > hi) {
    usage_error(std::string{flag} + " needs an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + std::string{text} + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error(std::string{flag} + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value, 0, std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, value, 1, 3600));
    } else if (flag == "--trace") {
      a.trace = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--scale") {
      a.scale = static_cast<unsigned>(parse_uint(flag, value, 8, 24));
    } else if (flag == "--results") {
      a.results = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage_error("unknown flag " + std::string{flag});
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(e2e::now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void print_metric(std::string_view name, double value, std::string_view unit) {
  std::printf("%.*s %.17g %.*s\n", static_cast<int>(name.size()), name.data(), value,
              static_cast<int>(unit.size()), unit.data());
}

/// The result fields a rerun must reproduce bit for bit.
bool same_result(const sys::RunResult& a, const sys::RunResult& b) {
  return a.exec_time == b.exec_time && a.pim_ops == b.pim_ops &&
         a.host_atomics == b.host_atomics && a.link_raw_bytes == b.link_raw_bytes &&
         a.link_data_bytes == b.link_data_bytes &&
         a.dram_internal_bytes == b.dram_internal_bytes &&
         a.cube_energy_j == b.cube_energy_j &&
         a.peak_dram_temp.value() == b.peak_dram_temp.value() &&
         a.thermal_warnings == b.thermal_warnings && a.shut_down == b.shut_down;
}

/// One finished experiment of a closed loop.
struct Completed {
  std::size_t index{0};  // into the workload's experiment list
  double wall_ms{0.0};
  std::optional<sys::RunResult> result;  // empty if the run threw
};

/// Times fn(), which runs experiment `index`; an exception marks it failed.
template <class Fn>
Completed timed(std::size_t index, Fn fn) {
  Completed item;
  item.index = index;
  const std::int64_t t0 = e2e::now_ns();
  try {
    item.result = fn();
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: experiment " << index << " threw: " << e.what() << "\n";
  }
  item.wall_ms = static_cast<double>(e2e::now_ns() - t0) * 1e-6;
  return item;
}

/// Runs `run(index, client)` from `clients` threads, each taking the next
/// experiment index only after its previous one finished.  Indices cycle
/// through [0, n); dispatch stops once a full cycle was handed out and
/// `seconds` have passed.
template <class RunFn>
std::vector<Completed> closed_loop(std::size_t n, unsigned clients, double seconds,
                                   double& wall_s, RunFn run) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Completed>> done(clients);
  const std::int64_t start = e2e::now_ns();
  const auto client = [&](unsigned c) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n && seconds_since(start) >= seconds) return;
      done[c].push_back(timed(i % n, [&] { return run(i % n, c); }));
    }
  };
  {
    std::vector<std::jthread> threads;  // joined at the end of this scope
    for (unsigned c = 1; c < clients; ++c) threads.emplace_back(client, c);
    client(0);
  }
  wall_s = seconds_since(start);

  std::vector<Completed> all;
  for (auto& d : done) {
    for (auto& item : d) all.push_back(std::move(item));
  }
  return all;
}

/// Per-experiment verdicts: how often it ran, whether any run threw, and
/// whether every run reproduced the first one.
struct ExperimentRecord {
  std::size_t runs{0};
  bool threw{false};
  bool consistent{true};
  std::optional<sys::RunResult> first;
};

void record(std::vector<ExperimentRecord>& records, const std::vector<Completed>& done) {
  for (const Completed& c : done) {
    ExperimentRecord& r = records[c.index];
    ++r.runs;
    if (!c.result) {
      r.threw = true;
    } else if (!r.first) {
      r.first = c.result;
    } else if (!same_result(*r.first, *c.result)) {
      r.consistent = false;
    }
  }
}

bool write_results(const std::string& path, const std::vector<runner::Experiment>& experiments,
                   const std::vector<ExperimentRecord>& records) {
  std::ofstream out{path};
  out << "workload,scenario,runs,threw,consistent,exec_time_ms,pim_ops,link_raw_bytes,"
         "peak_dram_c,shut_down\n";
  char buf[256];
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const ExperimentRecord& r = records[i];
    const sys::RunResult res = r.first.value_or(sys::RunResult{});
    std::snprintf(buf, sizeof buf, "%s,%s,%zu,%d,%d,%.17g,%llu,%.17g,%.17g,%d\n",
                  experiments[i].workload.c_str(),
                  std::string{sys::to_string(experiments[i].config.scenario)}.c_str(), r.runs,
                  r.threw ? 1 : 0, r.consistent ? 1 : 0, res.exec_time.as_ms(),
                  static_cast<unsigned long long>(res.pim_ops), res.link_raw_bytes,
                  res.peak_dram_temp.value(), res.shut_down ? 1 : 0);
    out << buf;
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

sys::WorkloadSet build_set(const Workload& w, unsigned scale, std::uint64_t seed) {
  sys::WorkloadSet::BuildOptions options;
  options.jobs = w.clients;
  options.use_cache = false;
  return sys::WorkloadSet{scale, seed, false, options};
}

// ---- untraced mode ---------------------------------------------------------

void run_untraced(const Workload& w, const Args& args, unsigned scale,
                  const std::vector<runner::Experiment>& experiments,
                  std::vector<ExperimentRecord>& records) {
  std::vector<double> setup_s;
  std::optional<sys::WorkloadSet> set;
  for (unsigned b = 0; b < w.setup_builds; ++b) {
    set.reset();
    const std::int64_t t0 = e2e::now_ns();
    set.emplace(build_set(w, scale, args.seed));
    setup_s.push_back(seconds_since(t0));
  }

  runner::RunOptions opt;
  opt.use_cache = false;
  const auto run = [&](std::size_t i, unsigned) {
    const runner::Experiment& e = experiments[i];
    return runner::run_one(*set, e.workload, e.config.scenario, e.config, opt);
  };
  (void)run(0, 0);  // untimed warm-up

  double wall_s = 0.0;
  const auto done = closed_loop(experiments.size(), w.clients, args.seconds, wall_s, run);
  record(records, done);

  // Each experiment's median wall over its runs, so a burst of outside load
  // or where the time limit cut the last cycle does not change the mix the
  // percentiles and the rate are taken over.
  std::vector<std::vector<double>> walls(experiments.size());
  for (const Completed& c : done) walls[c.index].push_back(c.wall_ms);
  std::vector<double> run_ms;
  double cycle_ms = 0.0;
  for (const auto& v : walls) {
    run_ms.push_back(median(v));
    cycle_ms += run_ms.back();
  }
  print_metric("setup_s", median(setup_s), "s");
  print_metric("experiments_per_s",
               static_cast<double>(w.clients * experiments.size()) / (cycle_ms * 1e-3), "1/s");
  print_metric("run_ms_p50", percentile(run_ms, 0.5), "ms");
  print_metric("run_ms_p90", percentile(run_ms, 0.9), "ms");
  print_metric("peak_rss_mb", peak_rss_mb(), "MB");
  print_metric("run_samples", static_cast<double>(done.size()), "count");
}

// ---- traced mode -----------------------------------------------------------

/// The deterministic work counters the traced run reads off its RunObserver.
struct Counters {
  std::uint64_t sor_iterations{0};
  std::uint64_t steady_solves{0};
  std::uint64_t steps{0};
  std::uint64_t epochs{0};
  std::uint64_t kernel_launches{0};
  std::uint64_t served_pim_ops{0};
  std::uint64_t crf_instructions{0};
  std::uint64_t bank_conflicts{0};
  std::uint64_t warnings{0};

  static Counters read(const obs::CounterRegistry& r) {
    namespace n = obs::names;
    return Counters{r.counter_value(n::kThermalSteadyIterations),
                    r.counter_value(n::kThermalSteadySolves),
                    r.counter_value(n::kThermalSteps),
                    r.counter_value(n::kSysEpochs),
                    r.counter_value(n::kGpuKernelLaunches),
                    r.counter_value(n::kHmcServedPimOps),
                    r.counter_value(n::kPimCrfInstructions),
                    r.counter_value(n::kPimBankConflicts),
                    r.counter_value(n::kSysThermalWarningsDelivered)};
  }

  Counters& operator+=(const Counters& o) {
    sor_iterations += o.sor_iterations;
    steady_solves += o.steady_solves;
    steps += o.steps;
    epochs += o.epochs;
    kernel_launches += o.kernel_launches;
    served_pim_ops += o.served_pim_ops;
    crf_instructions += o.crf_instructions;
    bank_conflicts += o.bank_conflicts;
    warnings += o.warnings;
    return *this;
  }
};

/// What one traced client accumulates over its experiments.
struct ClientTrace {
  e2e::SpanLog log;
  std::uint64_t setup_sor_iterations{0};  // snapshotted right after each constructor
  Counters totals;                        // snapshotted at the end of each run
};

/// System::run's loop, driven here so every public call gets its own span;
/// the run seed is derived exactly as the runner derives it.
sys::RunResult run_traced(const sys::WorkloadSet& set, const runner::Experiment& e,
                          std::uint32_t id, ClientTrace& ct) {
  sys::SystemConfig cfg = e.config;
  cfg.run_seed = runner::derive_seed(runner::experiment_key(set, e.workload, cfg));
  obs::RunObserver observer;
  cfg.observer = &observer;

  const auto root = ct.log.open("experiment", "runner", id);
  auto span = ct.log.open("SystemRun::SystemRun", "sys", id);
  sys::SystemRun run{cfg, set.profile(e.workload)};
  ct.log.close(span);
  ct.setup_sor_iterations += Counters::read(observer.counters).sor_iterations;
  for (;;) {
    span = ct.log.open("SystemRun::advance", "sys", id);
    const bool pending = run.advance();
    ct.log.close(span);
    if (!pending) break;
    span = ct.log.open("HmcThermalModel::step", "thermal", id);
    run.thermal().step(run.pending_dt());
    ct.log.close(span);
  }
  span = ct.log.open("SystemRun::take_result", "sys", id);
  sys::RunResult result = run.take_result();
  ct.log.close(span);
  ct.log.close(root);
  ct.totals += Counters::read(observer.counters);
  return result;
}

/// Median wall time of `reps` calls of fn(), each in its own span.
template <class Fn>
double timed_median_ms(e2e::SpanLog& log, std::string_view name, std::string_view cat,
                       unsigned reps, Fn fn) {
  std::vector<double> ms;
  for (unsigned r = 0; r < reps; ++r) {
    const auto span = log.open(name, cat, 0);
    fn();
    log.close(span);
    ms.push_back(log.ms(span));
  }
  return median(ms);
}

/// Isolated cold steady solve on the run's stack and cooling: host time per
/// SOR iteration.
double sor_iter_us(const Workload& w, e2e::SpanLog& log) {
  const hmc::LinkModel link{w.base.hmc};
  power::OperatingPoint warm{};
  warm.link_raw = link.config().link_raw_total();
  warm.dram_internal = link.max_data_bandwidth();
  std::vector<double> us;
  for (int r = 0; r < 3; ++r) {
    thermal::HmcThermalModel therm{thermal::hmc20_thermal_config(w.base.cooling)};
    therm.apply_power(power::compute_power(w.base.energy, warm));
    const auto span = log.open("HmcThermalModel::solve_steady", "thermal", 0);
    const std::size_t iterations = therm.solve_steady(thermal::SteadyStart::kCold);
    log.close(span);
    us.push_back(log.ms(span) * 1e3 /
                 static_cast<double>(iterations));
  }
  return median(us);
}

/// Isolated Backend::serve on the workload's fidelity tier under saturating
/// mixed demand: host time per 10 us epoch.
double serve_us_per_epoch(const Workload& w, e2e::SpanLog& log) {
  hmc::BackendBuild build;
  build.kind = w.base.backend;
  const auto backend = hmc::make_backend(build);
  const Time epoch = Time::us(10.0);
  hmc::EpochDemand demand;
  demand.reads = 4e9 * epoch.as_sec();
  demand.writes = 2e9 * epoch.as_sec();
  demand.pim_ops = 6e9 * epoch.as_sec();
  demand.pim_return_fraction = 0.25;
  const auto span = log.open("Backend::serve", "hmc", 0);
  const std::int64_t until = e2e::now_ns() + 200'000'000;
  unsigned epochs = 0;
  while (epochs < 20 || e2e::now_ns() < until) {
    (void)backend->serve(demand, epoch, Celsius{60.0});
    ++epochs;
  }
  log.close(span);
  return log.ms(span) * 1e3 / static_cast<double>(epochs);
}

void run_traced_mode(const Workload& w, const Args& args, unsigned scale,
                     const std::vector<runner::Experiment>& experiments,
                     std::vector<ExperimentRecord>& records) {
  const std::int64_t origin = e2e::now_ns();
  e2e::SpanLog main_log;

  auto span = main_log.open("WorkloadSet::WorkloadSet", "graph", 0);
  const sys::WorkloadSet set = build_set(w, scale, args.seed);
  main_log.close(span);
  const double setup_ms = main_log.ms(span);
  const double generate_ms = timed_median_ms(main_log, "graph::make_ldbc_like", "graph", 1, [&] {
    runner::Pool pool{w.clients};
    (void)graph::make_ldbc_like(scale, args.seed, &pool);
  });

  // One cycle in which each client runs every experiment it takes twice,
  // untraced through runner::run_one and then traced, so both see the same
  // machine state; the traced wall comes from the "experiment" spans.
  runner::RunOptions opt;
  opt.use_cache = false;
  const auto run_plain = [&](std::size_t i) {
    const runner::Experiment& e = experiments[i];
    return runner::run_one(set, e.workload, e.config.scenario, e.config, opt);
  };
  (void)run_plain(0);  // untimed warm-up
  std::vector<ClientTrace> clients(w.clients);
  std::vector<std::vector<Completed>> plain(w.clients);
  double wall_s = 0.0;
  const auto traced =
      closed_loop(experiments.size(), w.clients, 0.0, wall_s, [&](std::size_t i, unsigned c) {
        plain[c].push_back(timed(i, [&] { return run_plain(i); }));
        return run_traced(set, experiments[i], static_cast<std::uint32_t>(i), clients[c]);
      });
  record(records, traced);
  double plain_run_ms = 0.0;
  for (const auto& done : plain) {
    record(records, done);
    for (const Completed& c : done) plain_run_ms += c.wall_ms;
  }

  // Isolated layer costs with the run's own arguments.
  const runner::Experiment& first = experiments.front();
  const std::uint64_t first_seed =
      runner::derive_seed(runner::experiment_key(set, first.workload, first.config));
  const auto property_bytes =
      static_cast<std::uint64_t>(set.profile(first.workload).graph_vertices) * 8;
  const double cache_model_ms =
      timed_median_ms(main_log, "gpu::CacheHitModel", "gpu", 5, [&] {
        const gpu::CacheHitModel model{first.config.gpu, property_bytes, 1 << 20, first_seed};
        (void)model;
      });
  const double iter_us = sor_iter_us(w, main_log);
  const double serve_us = serve_us_per_epoch(w, main_log);

  Counters total;
  std::uint64_t setup_iterations = 0;
  double ctor_ms = 0.0, advance_ms = 0.0, step_ms = 0.0, run_ms = 0.0;
  for (const ClientTrace& ct : clients) {
    total += ct.totals;
    setup_iterations += ct.setup_sor_iterations;
    ctor_ms += ct.log.total_ms("SystemRun::SystemRun");
    advance_ms += ct.log.total_ms("SystemRun::advance");
    step_ms += ct.log.total_ms("HmcThermalModel::step");
    run_ms += ct.log.total_ms("experiment");
  }
  const std::uint64_t run_iterations = total.sor_iterations - setup_iterations;

  print_metric("graph.generate_ms", generate_ms, "ms");
  print_metric("graph.profile_ms", setup_ms - generate_ms, "ms");
  print_metric("gpu.cache_model_ms", cache_model_ms, "ms");
  print_metric("gpu.kernel_launches", static_cast<double>(total.kernel_launches), "count");
  print_metric("thermal.setup_sor_iterations", static_cast<double>(setup_iterations), "count");
  print_metric("thermal.run_sor_iterations", static_cast<double>(run_iterations), "count");
  print_metric("thermal.steady_solves", static_cast<double>(total.steady_solves), "count");
  print_metric("thermal.sor_iter_us", iter_us, "us");
  print_metric("thermal.steady_ms_est",
               static_cast<double>(total.sor_iterations) * iter_us * 1e-3, "ms");
  print_metric("thermal.steps", static_cast<double>(total.steps), "count");
  print_metric("thermal.step_ms", step_ms, "ms");
  print_metric("hmc.serve_us_per_epoch", serve_us, "us");
  print_metric("hmc.served_pim_ops", static_cast<double>(total.served_pim_ops), "count");
  print_metric("pim.crf_instructions", static_cast<double>(total.crf_instructions), "count");
  print_metric("pim.bank_conflicts", static_cast<double>(total.bank_conflicts), "count");
  print_metric("sys.setup_ms", ctor_ms, "ms");
  print_metric("sys.advance_ms", advance_ms, "ms");
  print_metric("sys.run_ms", run_ms, "ms");
  print_metric("sys.epochs", static_cast<double>(total.epochs), "count");
  print_metric("sys.host_us_per_epoch", run_ms * 1e3 / static_cast<double>(total.epochs), "us");
  print_metric("sys.warnings", static_cast<double>(total.warnings), "count");
  print_metric("sys.other_ms_est",
               advance_ms - static_cast<double>(run_iterations) * iter_us * 1e-3, "ms");
  print_metric("runner.parallel_speedup", (plain_run_ms + run_ms) / (wall_s * 1e3), "x");
  print_metric("trace_overhead_pct", (run_ms / plain_run_ms - 1.0) * 100.0, "%");
  print_metric("span_coverage_pct", (ctor_ms + advance_ms + step_ms) / run_ms * 100.0, "%");

  if (!args.trace_out.empty()) {
    std::vector<const e2e::SpanLog*> logs{&main_log};
    for (const ClientTrace& ct : clients) logs.push_back(&ct.log);
    std::ofstream out{args.trace_out};
    e2e::write_chrome_trace(out, logs, origin);
    if (!out) {
      std::cerr << "e2e_bench: cannot write " << args.trace_out << "\n";
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto workloads = all_workloads();
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) { return w.name == args.workload; });
  if (it == workloads.end()) usage_error("unknown workload '" + args.workload + "'");
  const Workload& w = *it;
  const unsigned scale = args.scale != 0 ? args.scale : w.scale;

  std::vector<runner::Experiment> experiments;
  for (const std::string& name : sys::workload_names()) {
    for (const sys::Scenario s : w.scenarios) {
      runner::Experiment e{name, w.base};
      e.config.scenario = s;
      experiments.push_back(std::move(e));
    }
  }
  std::vector<ExperimentRecord> records(experiments.size());

  print_metric("scale", scale, "log2_vertices");
  try {
    if (args.trace) {
      run_traced_mode(w, args, scale, experiments, records);
    } else {
      run_untraced(w, args, scale, experiments, records);
    }
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
  if (!args.results.empty() && !write_results(args.results, experiments, records)) {
    std::cerr << "e2e_bench: cannot write " << args.results << "\n";
    return 1;
  }
  return 0;
}
