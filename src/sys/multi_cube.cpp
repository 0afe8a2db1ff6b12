#include "sys/multi_cube.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "gpu/engine.hpp"
#include "hmc/link_model.hpp"
#include "hmc/throughput_model.hpp"
#include "sys/policy_registry.hpp"
#include "thermal/hmc_thermal.hpp"

namespace coolpim::sys {

void MultiCubeConfig::validate() const {
  COOLPIM_REQUIRE(cubes >= 1 && cubes <= 8, "1..8 cubes supported");
  COOLPIM_REQUIRE(atomic_skew >= 0.0 && atomic_skew <= 1.0, "skew must be a fraction");
}

MultiCubeSystem::MultiCubeSystem(MultiCubeConfig cfg) : cfg_{std::move(cfg)} {
  cfg_.validate();
  cfg_.base.gpu.validate();
}

namespace {

/// Per-cube state: its own throughput model and thermal stack.
struct Cube {
  std::unique_ptr<hmc::ThroughputModel> hmc;
  std::unique_ptr<thermal::HmcThermalModel> therm;
  double regular_share{0.0};
  double atomic_share{0.0};
  double served_pim{0.0};
  Celsius peak{0.0};
};

}  // namespace

MultiCubeResult MultiCubeSystem::run(const graph::WorkloadProfile& workload) {
  COOLPIM_REQUIRE(workload.graph_vertices > 0, "workload missing graph metadata");
  const SystemConfig& base = cfg_.base;
  const bool ideal = base.scenario == Scenario::kIdealThermal;
  const std::size_t n = cfg_.cubes;

  gpu::CacheHitModel cache{base.gpu, static_cast<std::uint64_t>(workload.graph_vertices) * 8};
  auto launches = gpu::build_launches(workload, base.gpu, cache);

  // Eq. 1 trial-run estimate (single aggregate link budget of all cubes).
  const hmc::LinkModel link{base.hmc};
  double est_flits = 0.0, est_instr = 0.0, est_atomics = 0.0;
  double est_reads = 0.0, est_writes = 0.0;
  for (const auto& l : launches) {
    est_flits += 6.0 * (l.mem.read_txns + l.mem.write_txns) + 3.0 * l.mem.atomic_ops;
    est_instr += l.warp_instructions;
    est_atomics += l.mem.atomic_ops;
    est_reads += l.mem.read_txns;
    est_writes += l.mem.write_txns;
  }
  const double est_time = std::max(est_flits / (link.flits_per_sec() * static_cast<double>(n)),
                                   est_instr / base.gpu.issue_rate_per_sec());
  const double naive_rate = est_time > 0.0 ? est_atomics / est_time * 1e-9 : 0.0;

  auto controller = make_policy(base, workload, naive_rate);
  gpu::ExecutionEngine engine{base.gpu, std::move(launches), *controller};

  // Build the cubes.  Regular traffic stripes evenly; atomics follow the
  // skew (cube 0 gets `atomic_skew`, the rest split the remainder).
  std::vector<Cube> cubes(n);
  for (std::size_t i = 0; i < n; ++i) {
    cubes[i].hmc = std::make_unique<hmc::ThroughputModel>(base.hmc, base.policy);
    cubes[i].therm =
        std::make_unique<thermal::HmcThermalModel>(thermal::hmc20_thermal_config(base.cooling));
    cubes[i].regular_share = 1.0 / static_cast<double>(n);
    cubes[i].atomic_share = n == 1 ? 1.0
                            : (i == 0 ? cfg_.atomic_skew
                                      : (1.0 - cfg_.atomic_skew) / static_cast<double>(n - 1));
    // Warm start: each cube at the sustained steady state of ITS share of
    // the workload's un-throttled demand (naive sustained execution of the
    // surrounding application).  Peaks are recorded from measured epochs
    // only, so throttled scenarios can show cooler peaks.
    if (est_time > 0.0) {
      hmc::EpochDemand share;
      share.reads = est_reads / est_time * cubes[i].regular_share;
      share.writes = est_writes / est_time * cubes[i].regular_share;
      share.pim_ops = est_atomics / est_time * cubes[i].atomic_share;
      const auto svc = cubes[i].hmc->serve(share, Time::sec(1.0), Celsius{80.0});
      power::OperatingPoint warm;
      warm.link_raw = svc.link_raw;
      warm.dram_internal = svc.dram_internal;
      warm.pim_ops_per_sec = svc.pim_ops_per_sec;
      cubes[i].therm->apply_power(power::compute_power(base.energy, warm));
      cubes[i].therm->solve_steady();
    }
    cubes[i].peak = Celsius{0.0};
  }

  MultiCubeResult result;
  result.aggregate.workload = workload.name;
  result.aggregate.scenario = std::string(to_string(base.scenario));

  Time now = Time::zero();
  const Time epoch = base.epoch;
  double total_pim = 0.0;

  while (!engine.finished()) {
    COOLPIM_REQUIRE(now < base.max_time, "multi-cube run exceeded max_time");
    const auto demand = engine.plan(now, epoch);

    // Each cube serves its share; the GPU proceeds at the slowest cube.
    double served_fraction = 1.0;
    bool any_warning = false;
    std::vector<hmc::EpochService> services(n);
    for (std::size_t i = 0; i < n; ++i) {
      hmc::EpochDemand share;
      share.reads = demand.reads * cubes[i].regular_share;
      share.writes = demand.writes * cubes[i].regular_share;
      share.pim_ops = demand.pim_ops * cubes[i].atomic_share;
      const Celsius temp = ideal ? Celsius{25.0} : cubes[i].therm->peak_dram();
      services[i] = cubes[i].hmc->serve(share, epoch, temp);
      COOLPIM_REQUIRE(!services[i].shut_down, "cube shut down; sustained load infeasible");
      served_fraction = std::min(served_fraction, services[i].served_fraction);
    }

    // Commit at the slowest cube's pace.
    hmc::EpochService agg{};
    agg.served_fraction = served_fraction;
    agg.pim_ops = demand.pim_ops * served_fraction;
    agg.reads = demand.reads * served_fraction;
    agg.writes = demand.writes * served_fraction;
    const Time used = engine.commit(now, epoch, agg);
    now += used;
    total_pim += agg.pim_ops;

    // Thermal update per cube from its own served share (re-scaled to the
    // committed pace so energy matches the work actually done).
    const double secs = used.as_sec();
    Celsius hottest_now{0.0};
    if (secs > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        hmc::TransactionMix mix{demand.reads * cubes[i].regular_share * served_fraction / secs,
                                demand.writes * cubes[i].regular_share * served_fraction / secs,
                                demand.pim_ops * cubes[i].atomic_share * served_fraction / secs,
                                0.0};
        const hmc::LinkModel& lm = cubes[i].hmc->link();
        power::OperatingPoint op;
        op.link_raw = lm.raw_link_bandwidth(mix);
        op.dram_internal = lm.internal_dram_bandwidth(mix);
        op.pim_ops_per_sec = mix.pim_per_sec;
        const int level = ideal ? 0
                                : std::min(2, static_cast<int>(base.policy.phase(
                                                  cubes[i].therm->peak_dram())));
        cubes[i].therm->apply_power(power::compute_power(base.energy, op, level));
        cubes[i].therm->step(used);
        cubes[i].served_pim += demand.pim_ops * cubes[i].atomic_share * served_fraction;
        const Celsius t = cubes[i].therm->peak_dram();
        cubes[i].peak = std::max(cubes[i].peak, t);
        hottest_now = std::max(hottest_now, t);
        if (!ideal && base.policy.warning(t)) any_warning = true;
      }
    }
    // Per-epoch policy hook on the hottest cube (no-op for reactive policies).
    if (!ideal && secs > 0.0) controller->on_epoch(control::Reading{hottest_now}, now);
    if (any_warning) {
      controller->on_thermal_warning(now);
      ++result.aggregate.thermal_warnings;
    }
  }

  result.aggregate.exec_time = now;
  result.aggregate.pim_ops = static_cast<std::uint64_t>(total_pim + 0.5);
  Celsius hottest{0.0};
  for (auto& cube : cubes) {
    result.peak_dram_temps.push_back(cube.peak);
    result.final_dram_temps.push_back(cube.therm->peak_dram());
    hottest = std::max(hottest, cube.peak);
    result.pim_share.push_back(total_pim > 0.0 ? cube.served_pim / total_pim : 0.0);
  }
  result.aggregate.peak_dram_temp = ideal ? Celsius{25.0} : hottest;
  return result;
}

}  // namespace coolpim::sys
