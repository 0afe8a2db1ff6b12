// Perf harness for the thermal hot path (docs/PERFORMANCE.md).
//
// Three measurements, emitted as BENCH_thermal.json:
//
//  - transient: ns per cell-substep of the branch-free row-band sweep
//    (StackModel::step) against the guarded per-node reference sweep
//    (ReferenceSweep, tests/support), on the HMC 2.0 commodity-sink stack at
//    full read bandwidth -- the Fig. 3 / Fig. 13 operating point.  Both
//    kernels are bit-identical by contract; the harness cross-checks the
//    final fields.
//
//  - steady: wall time of the Fig. 3/4 bandwidth sweep (Table 2's four
//    cooling solutions x bandwidth 0..320 GB/s) solved by SOR from ambient
//    (SteadyStart::kCold) versus superposed from the cached unit responses
//    (the run path), the one-time cost of building those responses, and the
//    largest difference between the two fields.
//
//  - tall_stack: the 16-high HBM geometry, advanced over the same horizon by
//    StackModel::step_adi (one 32x-stable-dt substep per step) and by the
//    explicit step(), with the ADI error against the explicit run.
//
// Flags: --out FILE (default BENCH_thermal.json), --quick (CI smoke: short
// timed windows, same schema).  Exits 2 when a correctness check fails: the
// transient bit-identity cross-check or the tall-stack ADI tolerance.  Speed
// is not gated here; tools/check_bench.py validates the JSON schema and
// compares the throughput keys with bench/baselines/.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "hmc/config.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal/stack_model.hpp"

#include "perf_support.hpp"
#include "support/thermal_reference.hpp"
#include "thermal_points.hpp"

using namespace coolpim;

namespace {

/// The operating point both measurements run at: full regular-read bandwidth
/// into an HMC 2.0 cube under the commodity-server sink.
thermal::HmcThermalModel make_model(power::CoolingType cooling, double bw_gbps) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  thermal::HmcThermalModel model{thermal::hmc20_thermal_config(cooling)};
  model.apply_power(
      power::compute_power(power::EnergyParams{}, bench::read_traffic(link, bw_gbps)));
  return model;
}

struct TransientResult {
  double fast_ns_per_cell_substep;
  double reference_ns_per_cell_substep;
  double speedup;
  std::uint64_t nodes;
  std::uint64_t substeps_per_step;
  std::uint64_t fast_steps;
  std::uint64_t reference_steps;
  bool bit_identical;
};

/// Time `step` calls over `windows` wall-clock windows of `window_sec` each
/// and return the best (minimum) ns per cell-substep -- the minimum filters
/// scheduler noise out of the per-kernel number.  *steps_out accumulates the
/// total steps taken so the caller can re-synchronize two models.
template <typename StepFn>
double time_steps(StepFn step, int windows, double window_sec, std::uint64_t cells_per_step,
                  std::uint64_t* steps_out) {
  // One untimed call warms caches and (for the reference kernel) the heap.
  step();
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t total_steps = 0;
  for (int w = 0; w < windows; ++w) {
    std::uint64_t steps = 0;
    bench::StopWatch clock;
    do {
      for (int i = 0; i < 8; ++i) step();
      steps += 8;
    } while (clock.elapsed_sec() < window_sec);
    best = std::min(best,
                    clock.elapsed_ns() / (static_cast<double>(steps) * static_cast<double>(cells_per_step)));
    total_steps += steps;
  }
  *steps_out = total_steps;
  return best;
}

TransientResult measure_transient(bool quick) {
  const int windows = quick ? 3 : 7;
  const double window_sec = quick ? 0.02 : 0.12;
  // The system driver advances the thermal model in 10 us epochs; measure
  // the same call it makes.
  const Time dt = Time::us(10.0);

  auto fast = make_model(power::CoolingType::kCommodityServer, 320.0);
  auto ref = make_model(power::CoolingType::kCommodityServer, 320.0);
  fast.solve_steady();
  ref.solve_steady();

  TransientResult r{};
  r.nodes = fast.stack().node_count();
  r.substeps_per_step = fast.stack().substeps_for(dt);
  const std::uint64_t cells = r.nodes * r.substeps_per_step;

  // Interleave the two kernels' timing windows so machine noise (frequency
  // scaling, co-tenants) hits both measurements alike; each side keeps its
  // best window.
  thermal::StackModel& fast_stack = fast.stack();
  thermal::StackModel& ref_stack = ref.stack();
  const thermal::ReferenceSweep oracle{ref_stack.spec()};
  r.fast_ns_per_cell_substep = std::numeric_limits<double>::infinity();
  r.reference_ns_per_cell_substep = std::numeric_limits<double>::infinity();
  for (int w = 0; w < windows; ++w) {
    std::uint64_t steps = 0;
    r.fast_ns_per_cell_substep =
        std::min(r.fast_ns_per_cell_substep,
                 time_steps([&] { fast_stack.step(dt); }, 1, window_sec, cells, &steps));
    r.fast_steps += steps;
    r.reference_ns_per_cell_substep = std::min(
        r.reference_ns_per_cell_substep,
        time_steps([&] { oracle.step(ref_stack, dt); }, 1, window_sec, cells, &steps));
    r.reference_steps += steps;
  }
  r.speedup = r.reference_ns_per_cell_substep / r.fast_ns_per_cell_substep;

  // Bit-identity cross-check: advance both models to the same step count and
  // require exactly equal peak temperatures.
  for (std::uint64_t s = r.fast_steps; s < r.reference_steps; ++s) fast_stack.step(dt);
  for (std::uint64_t s = r.reference_steps; s < r.fast_steps; ++s) oracle.step(ref_stack, dt);
  r.bit_identical = fast.peak_dram().value() == ref.peak_dram().value() &&
                    fast.peak_logic().value() == ref.peak_logic().value();
  return r;
}

struct SteadyResult {
  std::uint64_t points;
  std::uint64_t sor_cold_iterations;
  double sor_cold_ms;
  double superposed_ms;
  double speedup;
  std::uint64_t unit_response_iterations;
  double unit_response_ms;
  double max_abs_diff_k;
};

constexpr power::CoolingType kSweepCoolings[] = {
    power::CoolingType::kPassive, power::CoolingType::kLowEndActive,
    power::CoolingType::kCommodityServer, power::CoolingType::kHighEndActive};

/// One full Fig. 3/4-style sweep over `models` (one per cooling solution):
/// bandwidth 0..320 GB/s in 40 GB/s steps, `solve(model)` at every point.
/// Returns the point count.
template <typename Solve>
std::uint64_t steady_sweep(std::vector<thermal::HmcThermalModel>& models, Solve solve) {
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  std::uint64_t n = 0;
  for (auto& model : models) {
    for (double bw = 0.0; bw <= 320.0 + 1e-9; bw += 40.0) {
      model.apply_power(power::compute_power(ep, bench::read_traffic(link, bw)));
      solve(model);
      ++n;
    }
  }
  return n;
}

SteadyResult measure_steady(bool quick) {
  const int sor_reps = quick ? 1 : 3;
  const int windows = quick ? 5 : 7;
  const double window_sec = quick ? 0.02 : 0.12;
  SteadyResult r{};

  // One-time unit-response builds for the four stacks, through the uncached
  // builder (the run path fills a process-wide cache instead).
  bench::StopWatch build_clock;
  for (const auto cooling : kSweepCoolings) {
    for (const auto& unit : thermal::solve_unit_responses(thermal::hmc20_thermal_config(cooling))) {
      r.unit_response_iterations += unit.sor_iterations;
    }
  }
  r.unit_response_ms = build_clock.elapsed_ms();

  std::vector<thermal::HmcThermalModel> models;
  for (const auto cooling : kSweepCoolings) {
    models.emplace_back(thermal::hmc20_thermal_config(cooling));
  }

  // Untimed accuracy pass, which also fills the cache: superposed against
  // SOR from ambient at every point, over every node and the sink.
  r.points = steady_sweep(models, [&](thermal::HmcThermalModel& model) {
    model.solve_steady(thermal::SteadyStart::kCold);
    const auto sor_span = model.stack().temperatures_k();
    const std::vector<double> sor(sor_span.begin(), sor_span.end());
    const double sor_sink = model.stack().sink_temp().value();
    model.solve_steady();
    const auto sup = model.stack().temperatures_k();
    for (std::size_t i = 0; i < sor.size(); ++i) {
      r.max_abs_diff_k = std::max(r.max_abs_diff_k, std::abs(sup[i] - sor[i]));
    }
    r.max_abs_diff_k =
        std::max(r.max_abs_diff_k, std::abs(model.stack().sink_temp().value() - sor_sink));
  });

  // Each side keeps its best sweep: SOR over a few whole sweeps, the
  // sub-millisecond superposed sweep over repeated timed windows.
  r.sor_cold_ms = std::numeric_limits<double>::infinity();
  for (int i = 0; i < sor_reps; ++i) {
    std::uint64_t iters = 0;
    bench::StopWatch clock;
    steady_sweep(models, [&](thermal::HmcThermalModel& model) {
      iters += model.solve_steady(thermal::SteadyStart::kCold);
    });
    r.sor_cold_ms = std::min(r.sor_cold_ms, clock.elapsed_ms());
    r.sor_cold_iterations = iters;
  }
  r.superposed_ms = std::numeric_limits<double>::infinity();
  for (int w = 0; w < windows; ++w) {
    std::uint64_t sweeps = 0;
    bench::StopWatch clock;
    do {
      steady_sweep(models, [](thermal::HmcThermalModel& model) { model.solve_steady(); });
      ++sweeps;
    } while (clock.elapsed_sec() < window_sec);
    r.superposed_ms = std::min(r.superposed_ms, clock.elapsed_ms() / static_cast<double>(sweeps));
  }
  r.speedup = r.sor_cold_ms / r.superposed_ms;
  return r;
}

// ---- Tall stack: 16-high HBM geometry where the explicit stable dt
// collapses; step_adi takes 32x-larger substeps and must stay within the
// documented tolerance of the explicit step() advanced over the same horizon
// (DESIGN.md section 13).

struct TallStackResult {
  std::uint64_t layers;
  std::uint64_t nodes;
  double explicit_stable_dt_us;
  std::uint64_t explicit_substeps_per_step;
  std::uint64_t adi_substeps_per_step;
  double explicit_ms;
  double adi_ms;
  double speedup;
  double max_abs_error_k;
  double tolerance_k;
  bool within_tolerance;
};

TallStackResult measure_tall_stack(bool quick) {
  thermal::StackSpec spec = thermal::hbm_stack_spec(16, 12, 10);
  // Interval-simulation heat-capacity scaling (as HmcThermalConfig): settle
  // fast enough to bench while preserving the geometry and stencil.
  for (auto& l : spec.layers) l.volumetric_heat_capacity *= 0.05;
  spec.sink_heat_capacity *= 0.05;

  thermal::StackModel adi{spec};
  thermal::StackModel explicit_ref{spec};
  const Time dt = Time::sec(adi.stable_step().as_sec() * thermal::kAdiDtFactor);
  for (auto* m : {&adi, &explicit_ref}) {
    m->set_layer_power(0, thermal::uniform_power(spec.floorplan, 10.0));
    m->set_layer_power(16, thermal::uniform_power(spec.floorplan, 2.0));
  }

  TallStackResult r{};
  r.layers = adi.layer_count();
  r.nodes = adi.node_count();
  r.explicit_stable_dt_us = explicit_ref.stable_step().as_sec() * 1e6;
  r.explicit_substeps_per_step = explicit_ref.substeps_for(dt);
  r.adi_substeps_per_step = static_cast<std::uint64_t>(
      std::ceil(dt.as_sec() / (adi.stable_step().as_sec() * thermal::kAdiDtFactor)));

  // Accuracy: both kernels advance the same horizon from ambient.
  const int steps = quick ? 40 : 120;
  for (int s = 0; s < steps; ++s) {
    adi.step_adi(dt);
    explicit_ref.step(dt);
  }
  double max_err = 0.0;
  double max_rise = 0.0;
  for (std::size_t l = 0; l < adi.layer_count(); ++l) {
    const double want = explicit_ref.layer_peak(l).value();
    max_rise = std::max(max_rise, want - spec.ambient.value());
    max_err = std::max(max_err, std::abs(adi.layer_peak(l).value() - want));
  }
  r.max_abs_error_k = max_err;
  // DESIGN.md section 13: 2% of the explicit temperature rise at this dt.
  r.tolerance_k = 0.02 * max_rise;
  r.within_tolerance = max_err <= r.tolerance_k;

  // Speed: interleaved windows, best per kernel, reported as the wall time
  // of `steps` steps.
  const int windows = quick ? 3 : 7;
  const double window_sec = quick ? 0.02 : 0.12;
  double adi_ns = std::numeric_limits<double>::infinity();
  double explicit_ns = std::numeric_limits<double>::infinity();
  for (int w = 0; w < windows; ++w) {
    std::uint64_t timed = 0;
    adi_ns = std::min(adi_ns, time_steps([&] { adi.step_adi(dt); }, 1, window_sec, 1, &timed));
    explicit_ns = std::min(
        explicit_ns, time_steps([&] { explicit_ref.step(dt); }, 1, window_sec, 1, &timed));
  }
  r.adi_ms = adi_ns * steps / 1e6;
  r.explicit_ms = explicit_ns * steps / 1e6;
  r.speedup = r.explicit_ms / r.adi_ms;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args{argc, argv, {"--out"}, {"--quick"}};
  const std::string out = args.value("--out", "BENCH_thermal.json");
  const bool quick = args.flag("--quick");

  const TransientResult t = measure_transient(quick);
  const SteadyResult s = measure_steady(quick);
  const TallStackResult tall = measure_tall_stack(quick);

  bench::JsonWriter json;
  json.kv("schema", "coolpim-bench-thermal/4");
  json.kv("quick", quick);
  json.begin_object("transient");
  json.kv("nodes", t.nodes);
  json.kv("substeps_per_step", t.substeps_per_step);
  json.kv("fast_steps_timed", t.fast_steps);
  json.kv("reference_steps_timed", t.reference_steps);
  json.kv("fast_ns_per_cell_substep", t.fast_ns_per_cell_substep);
  json.kv("reference_ns_per_cell_substep", t.reference_ns_per_cell_substep);
  json.kv("speedup", t.speedup);
  json.kv("bit_identical", t.bit_identical);
  json.end();
  json.begin_object("steady");
  json.kv("points_per_sweep", s.points);
  json.kv("sor_cold_iterations", s.sor_cold_iterations);
  json.kv("sor_cold_ms", s.sor_cold_ms);
  json.kv("superposed_ms", s.superposed_ms);
  json.kv("speedup", s.speedup);
  json.kv("unit_response_iterations", s.unit_response_iterations);
  json.kv("unit_response_ms", s.unit_response_ms);
  json.kv("max_abs_diff_k", s.max_abs_diff_k);
  json.end();
  json.begin_object("tall_stack");
  json.kv("layers", tall.layers);
  json.kv("nodes", tall.nodes);
  json.kv("explicit_stable_dt_us", tall.explicit_stable_dt_us);
  json.kv("explicit_substeps_per_step", tall.explicit_substeps_per_step);
  json.kv("adi_substeps_per_step", tall.adi_substeps_per_step);
  json.kv("explicit_ms", tall.explicit_ms);
  json.kv("adi_ms", tall.adi_ms);
  json.kv("speedup", tall.speedup);
  json.kv("max_abs_error_k", tall.max_abs_error_k);
  json.kv("tolerance_k", tall.tolerance_k);
  json.kv("within_tolerance", tall.within_tolerance);
  json.end();
  const std::string doc = json.str();

  if (!bench::write_text_file(out, doc)) {
    std::cerr << "perf_thermal: cannot write " << out << "\n";
    return 1;
  }
  std::cout << doc;
  std::cout << "Transient sweep: " << t.fast_ns_per_cell_substep << " ns/cell-substep fast vs "
            << t.reference_ns_per_cell_substep << " reference (" << t.speedup
            << "x, bit-identical=" << (t.bit_identical ? "yes" : "NO") << ")\n"
            << "Steady sweep:    " << s.superposed_ms << " ms superposed vs " << s.sor_cold_ms
            << " ms SOR from ambient (" << s.speedup << "x, max diff " << s.max_abs_diff_k
            << " K); one-time unit responses " << s.unit_response_ms << " ms, "
            << s.unit_response_iterations << " SOR iterations\n"
            << "Tall stack:      step_adi " << tall.adi_ms << " ms vs step " << tall.explicit_ms
            << " ms (" << tall.speedup << "x, max err " << tall.max_abs_error_k << " K, tol "
            << tall.tolerance_k << " K, within=" << (tall.within_tolerance ? "yes" : "NO")
            << ")\n"
            << "Results written to " << out << "\n";
  return (t.bit_identical && tall.within_tolerance) ? 0 : 2;
}
