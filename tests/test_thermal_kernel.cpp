// Thermal fast-path contract tests (docs/PERFORMANCE.md, DESIGN.md
// sections 9 and 13):
//  * the branch-free row-band sweep (StackModel::step) is bit-identical to
//    the guarded per-node ReferenceSweep (tests/support) on randomized
//    stacks and on fixed shapes that hit every row-band case, where SOR
//    also balances energy,
//  * the transient kernel is stable at stable_step() under extreme cooling,
//  * the hot path performs no heap allocations after construction -- checked
//    with this binary's counting global operator new (tests are separate
//    executables, so the override is visible to every allocation here) --
//    including step_adi() and its refactorization, and apply_power(),
//  * apply_power() paints the watts of one PowerMap per source, bit for bit,
//  * both integrators fail loudly past kMaxTransientSubsteps,
//  * step_adi() matches a tight-dt explicit run within the documented
//    tolerance and settles onto the steady state (energy balance, SOR),
//  * the documented contracts stay pinned to the prose.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
#include "support/thermal_reference.hpp"
#include "thermal/hmc_thermal.hpp"
#include "thermal/stack_model.hpp"

// GCC pairs the inlined replacement operator new with std::free and reports a
// false mismatch; the replacement new below really does malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_live_allocs{0};

}  // namespace

// Counting allocator: every operator-new form funnels through here.  The
// counter is read around the calls under test; gtest's own allocations
// happen outside those windows.
void* operator new(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coolpim::thermal {
namespace {

std::uint64_t allocations() { return g_live_allocs.load(std::memory_order_relaxed); }

/// Randomized but physically valid stack on an nx x ny grid: varying
/// materials and sink parameters.
StackSpec random_spec(Rng& rng, std::size_t nx, std::size_t ny, std::size_t n_layers) {
  StackSpec spec;
  spec.floorplan.vaults_x = 1;
  spec.floorplan.vaults_y = 1;
  spec.floorplan.grid.nx = nx;
  spec.floorplan.grid.ny = ny;
  spec.floorplan.die_width_m = 2e-3 + 10e-3 * rng.next_double();
  spec.floorplan.die_height_m = 2e-3 + 10e-3 * rng.next_double();
  for (std::size_t l = 0; l < n_layers; ++l) {
    LayerSpec layer;
    layer.name = "L" + std::to_string(l);
    layer.thickness_m = 20e-6 + 80e-6 * rng.next_double();
    layer.conductivity = 30.0 + 200.0 * rng.next_double();
    layer.volumetric_heat_capacity = 1e6 + 2e6 * rng.next_double();
    layer.interface_r_above = 1e-6 + 2e-5 * rng.next_double();
    spec.layers.push_back(layer);
  }
  spec.tim_r = 2e-6 + 2e-5 * rng.next_double();
  spec.sink_r = ThermalResistance{0.1 + 2.0 * rng.next_double()};
  spec.sink_heat_capacity = 0.005 + 10.0 * rng.next_double();
  spec.board_r = 5.0 + 40.0 * rng.next_double();
  spec.co_heater_watts = rng.next_bool(0.3) ? 5.0 * rng.next_double() : 0.0;
  return spec;
}

/// The same with 1-5 layers on an odd grid shape.
StackSpec random_spec(Rng& rng) {
  const auto nx = static_cast<std::size_t>(rng.next_in(1, 24));
  const auto ny = static_cast<std::size_t>(rng.next_in(1, 12));
  const auto n_layers = static_cast<std::size_t>(rng.next_in(1, 5));
  return random_spec(rng, nx, ny, n_layers);
}

/// Fixed shapes that reach every row-band case of the kernels, whatever the
/// random draws hit.
struct Shape {
  const char* name;
  std::size_t nx, ny, layers;
};
constexpr Shape kEdgeShapes[] = {
    {"single layer", 7, 5, 1},
    {"nx = 1", 1, 6, 3},
    {"ny = 1", 9, 1, 3},
    {"ny = 2 (empty interior band)", 8, 2, 3},
    {"1x1", 1, 1, 3},
};

void apply_random_power(StackModel& model, Rng& rng) {
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    PowerMap pm{model.spec().floorplan.grid};
    const double layer_watts = 8.0 * rng.next_double();
    for (std::size_t c = 0; c < model.cells_per_layer(); ++c) {
      pm.add(c, layer_watts * rng.next_double() / static_cast<double>(model.cells_per_layer()));
    }
    model.set_layer_power(l, pm);
  }
}

void expect_fields_bit_identical(const StackModel& a, const StackModel& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (std::size_t c = 0; c < a.cells_per_layer(); ++c) {
      // EXPECT_EQ on doubles: exact bit-for-bit agreement, not a tolerance.
      ASSERT_EQ(a.cell_temp(l, c).value(), b.cell_temp(l, c).value())
          << "layer " << l << " cell " << c;
    }
  }
  ASSERT_EQ(a.sink_temp().value(), b.sink_temp().value());
}

/// Steps one model with step() and a twin through the ReferenceSweep, with
/// power drawn from `rng`, and requires bit-identical fields throughout.
void expect_sweeps_bit_identical(const StackSpec& spec, Rng& rng) {
  StackModel fast{spec};
  StackModel ref{spec};
  const ReferenceSweep oracle{spec};
  ASSERT_EQ(fast.stable_step(), oracle.stable_step());
  Rng power_rng{rng.next_u64()};
  Rng power_rng_copy = power_rng;
  apply_random_power(fast, power_rng);
  apply_random_power(ref, power_rng_copy);

  // Mix of sub-stable and multi-substep strides, interleaved with power
  // changes mid-run as the system driver does.
  const Time strides[] = {fast.stable_step(), Time::us(10.0), Time::us(3.3), Time::us(50.0)};
  for (const Time dt : strides) {
    for (int s = 0; s < 3; ++s) {
      fast.step(dt);
      oracle.step(ref, dt);
    }
    expect_fields_bit_identical(fast, ref);
  }
}

TEST(ThermalKernel, FastSweepBitIdenticalToReferenceOnRandomStacks) {
  Rng rng{0x7ea4'd00d'1234'5678ULL};
  for (const Shape& shape : kEdgeShapes) {
    SCOPED_TRACE(shape.name);
    expect_sweeps_bit_identical(random_spec(rng, shape.nx, shape.ny, shape.layers), rng);
  }
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("random stack " + std::to_string(trial));
    expect_sweeps_bit_identical(random_spec(rng), rng);
  }
}

TEST(ThermalKernel, SorBalancesEnergyOnEdgeShapes) {
  // Power in (node watts plus the co-heater) equals heat out through the
  // sink and the board, on every row-band case of the SOR sweep.
  Rng rng{0x5022'ba1a'0001ULL};
  for (const Shape& shape : kEdgeShapes) {
    SCOPED_TRACE(shape.name);
    StackModel model{random_spec(rng, shape.nx, shape.ny, shape.layers)};
    apply_random_power(model, rng);
    model.solve_steady(1e-12);
    double power_in = model.spec().co_heater_watts;
    for (const double w : model.power_w()) power_in += w;
    EXPECT_NEAR(heat_out(model), power_in, 1e-9 * power_in);
  }
}

TEST(ThermalKernel, StableAtStableStepUnderExtremeCooling) {
  // Harshest corner: strongest sink (high-end active), tiny sink mass, full
  // power.  Advancing at exactly stable_step() must stay bounded: explicit
  // Euler diverges visibly within a few hundred substeps if the bound is
  // wrong.
  Rng rng{0xc001'cafe};
  for (int trial = 0; trial < 6; ++trial) {
    StackSpec spec = random_spec(rng);
    spec.sink_r = ThermalResistance{0.05};
    spec.sink_heat_capacity = 0.002;
    StackModel model{spec};
    apply_random_power(model, rng);

    const double ambient_c = spec.ambient.value();
    for (int s = 0; s < 500; ++s) {
      model.step(model.stable_step());
      const double peak = model.peak_over_layers(0, model.layer_count() - 1).value();
      ASSERT_TRUE(std::isfinite(peak)) << "diverged at substep " << s;
      ASSERT_LT(peak, 500.0) << "diverged at substep " << s;
      ASSERT_GT(peak, ambient_c - 1.0);
    }
  }
}

TEST(ThermalKernel, StepIsAllocationFreeAndReferenceIsNot) {
  HmcThermalModel model{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  const hmc::LinkModel link{hmc::hmc20_config()};
  hmc::TransactionMix mix;
  mix.reads_per_sec = 320.0 * 1e9 / 64.0;
  power::OperatingPoint op;
  op.link_raw = link.raw_link_bandwidth(mix);
  op.dram_internal = link.internal_dram_bandwidth(mix);
  model.apply_power(power::compute_power(power::EnergyParams{}, op));
  model.solve_steady();

  StackModel& stack = model.stack();
  // Touch the lazy stats cache once so its buffers exist.
  (void)model.peak_dram();

  const std::uint64_t before = allocations();
  for (int i = 0; i < 50; ++i) {
    stack.step(Time::us(10.0));
    (void)model.peak_dram();  // stats recompute must not allocate either
  }
  EXPECT_EQ(allocations(), before) << "step() allocated on the hot path";

  const ReferenceSweep oracle{stack.spec()};
  const std::uint64_t ref_before = allocations();
  oracle.step(stack, Time::us(10.0));
  EXPECT_GT(allocations(), ref_before) << "reference kernel should use per-call scratch";
}

TEST(ThermalKernel, SuperposedResolveIsAllocationFree) {
  HmcThermalModel model{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  const hmc::LinkModel link{hmc::hmc20_config()};
  const power::EnergyParams ep;
  auto apply_bw = [&](double bw) {
    hmc::TransactionMix mix;
    mix.reads_per_sec = bw * 1e9 / 64.0;
    power::OperatingPoint op;
    op.link_raw = link.raw_link_bandwidth(mix);
    op.dram_internal = link.internal_dram_bandwidth(mix);
    model.apply_power(power::compute_power(ep, op));
  };

  // The first solve looks the unit responses up (and may solve them).
  apply_bw(80.0);
  model.solve_steady();
  const double at_80 = model.peak_dram().value();

  // The window covers the solve and the stats it invalidates; apply_power
  // has its own test below.
  apply_bw(240.0);
  const std::uint64_t before = allocations();
  model.solve_steady();
  const double at_240 = model.peak_dram().value();
  EXPECT_EQ(allocations(), before) << "superposed re-solve allocated";
  EXPECT_GT(at_240, at_80);
}

/// A breakdown with distinct watts in every source.
power::PowerBreakdown sample_breakdown(double scale) {
  power::PowerBreakdown p;
  p.logic_dynamic = Watts{3.1 * scale};
  p.logic_background = Watts{4.7 * scale};
  p.fu = Watts{1.3 * scale};
  p.dram_dynamic = Watts{2.9 * scale};
  p.dram_background = Watts{0.8 * scale};
  return p;
}

TEST(ThermalKernel, ApplyPowerAndStepAreAllocationFreeAfterTheFirstCall) {
  HmcThermalModel model{hmc20_thermal_config(power::CoolingType::kCommodityServer)};
  model.apply_power(sample_breakdown(1.0));
  model.step(Time::us(50.0));

  const std::uint64_t before = allocations();
  for (int i = 0; i < 20; ++i) {
    model.apply_power(sample_breakdown(1.0 + 0.05 * i));
    model.step(Time::us(50.0));
  }
  EXPECT_EQ(allocations(), before) << "apply_power/step allocated after the first call";
}

// apply_power() paints its rows in place; the watts must be the bits of one
// PowerMap per source summed in layout order (logic background, logic
// dynamic, FU; DRAM split over the dies).  Equal power gives bit-equal
// transients.
TEST(ThermalKernel, ApplyPowerMatchesPowerMapSumsBitForBit) {
  const HmcThermalConfig cfg = hmc20_thermal_config(power::CoolingType::kCommodityServer);
  HmcThermalModel model{cfg};
  StackModel reference{model.stack().spec()};
  const Floorplan& fp = reference.spec().floorplan;

  for (const double scale : {1.0, 2.7}) {
    const power::PowerBreakdown p = sample_breakdown(scale);
    model.apply_power(p);
    PowerMap logic{fp.grid};
    logic.add(uniform_power(fp, p.logic_background.value()));
    logic.add(vault_centered_power(fp, p.logic_dynamic.value()));
    logic.add(vault_centered_power(fp, p.fu.value()));
    PowerMap dram{fp.grid};
    dram.add(uniform_power(fp, p.dram_total().value() / static_cast<double>(cfg.dram_dies)));
    reference.set_layer_power(0, logic);
    for (std::size_t l = 1; l <= cfg.dram_dies; ++l) reference.set_layer_power(l, dram);

    for (int s = 0; s < 3; ++s) {
      model.stack().step(Time::us(50.0));
      reference.step(Time::us(50.0));
    }
    const auto got = model.stack().temperatures_k();
    const auto want = reference.temperatures_k();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]) << "node " << i;
  }
}

// ---- ADI kernel (StackModel::step_adi) ------------------------------------

/// hbm_stack_spec with every heat capacity scaled by `scale` (the
/// interval-simulation compression the fleet and HmcThermalConfig apply).
StackSpec scaled_hbm_spec(std::size_t dies, std::size_t nx, std::size_t ny, double scale) {
  StackSpec spec = hbm_stack_spec(dies, nx, ny);
  for (auto& l : spec.layers) l.volumetric_heat_capacity *= scale;
  spec.sink_heat_capacity *= scale;
  return spec;
}

TEST(ThermalKernel, AdiStepAllocationFreeIncludingRefactor) {
  StackModel model{hbm_stack_spec(16, 10, 8)};
  model.set_layer_power(0, uniform_power(model.spec().floorplan, 8.0));
  (void)model.layer_peak(0);  // touch the lazy stats cache

  const std::uint64_t before = allocations();
  for (int s = 0; s < 5; ++s) model.step_adi(Time::ms(1.0));  // first call builds the plan
  model.step_adi(Time::ms(2.5));  // different substep length: in-place refactor
  (void)model.layer_peak(0);
  EXPECT_EQ(allocations(), before) << "step_adi (incl. refactor) allocated";
}

TEST(ThermalKernel, IntegratorsFailLoudlyPastTheSubstepCeiling) {
  // Any dt needing more than kMaxTransientSubsteps explicit substeps must
  // throw, not silently loop for minutes.  5e6 x stable_step > 2^22.
  StackModel tall{hbm_stack_spec(16, 12, 10)};
  const Time huge = Time::sec(tall.stable_step().as_sec() * 5.0e6);
  EXPECT_THROW((void)tall.substeps_for(huge), ConfigError);
  EXPECT_THROW(tall.step(huge), ConfigError);
  EXPECT_THROW(ReferenceSweep{tall.spec()}.step(tall, huge), ConfigError);
  // step_adi has the same ceiling at kAdiDtFactor x the substep length.
  const Time beyond_adi = Time::sec(tall.stable_step().as_sec() * kAdiDtFactor * 5.0e6);
  EXPECT_THROW(tall.step_adi(beyond_adi), ConfigError);
  // Non-positive steps are rejected by every integrator.
  EXPECT_THROW((void)tall.substeps_for(Time::zero()), ConfigError);
  EXPECT_THROW(tall.step(Time::zero()), ConfigError);
  EXPECT_THROW(tall.step_adi(Time::zero()), ConfigError);

  // A step the explicit kernel refuses stays tractable under ADI (a coarse
  // grid keeps its ~2^17 substeps quick).
  StackSpec coarse = hbm_stack_spec(16, 8, 4);
  coarse.floorplan.vaults_x = 1;
  coarse.floorplan.vaults_y = 1;
  coarse.floorplan.grid = GridDims{2, 2};
  StackModel model{coarse};
  model.set_layer_power(0, uniform_power(coarse.floorplan, 5.0));
  const Time refused =
      Time::sec(model.stable_step().as_sec() * static_cast<double>(kMaxTransientSubsteps + 1));
  EXPECT_THROW((void)model.substeps_for(refused), ConfigError);
  EXPECT_NO_THROW(model.step_adi(refused));
  EXPECT_TRUE(std::isfinite(model.peak_over_layers(0, model.layer_count() - 1).value()));
}

TEST(ThermalKernel, AdiMatchesTightDtExplicitOnTallStack) {
  // 16-high HBM-class stack.  One step_adi substep spans kAdiDtFactor (>=
  // 10) explicit stable steps; the tight-dt reference advances the same dt
  // through the explicit step() (bit-identical to ReferenceSweep).
  const StackSpec spec = scaled_hbm_spec(16, 12, 10, 0.05);
  StackModel adi{spec};
  StackModel explicit_ref{spec};
  const Time dt = Time::sec(adi.stable_step().as_sec() * kAdiDtFactor);
  ASSERT_GE(kAdiDtFactor, 10.0);

  // Hot logic die + warm top DRAM: uniform per-layer power, the pattern the
  // tolerance contract covers.
  for (StackModel* m : {&adi, &explicit_ref}) {
    m->set_layer_power(0, uniform_power(spec.floorplan, 10.0));
    m->set_layer_power(16, uniform_power(spec.floorplan, 2.0));
  }

  double max_err = 0.0;
  double max_rise = 0.0;
  for (int s = 0; s < 120; ++s) {
    adi.step_adi(dt);
    explicit_ref.step(dt);
    for (std::size_t l = 0; l < adi.layer_count(); ++l) {
      const double want = explicit_ref.layer_peak(l).value();
      max_rise = std::max(max_rise, want - spec.ambient.value());
      max_err = std::max(max_err, std::abs(adi.layer_peak(l).value() - want));
    }
  }
  ASSERT_GT(max_rise, 5.0);  // the transient actually heated the stack
  RecordProperty("max_adi_error_k", std::to_string(max_err));
  // Documented tolerance (DESIGN.md section 13): ADI peak temperatures stay
  // within 2% of the explicit temperature rise at dt = 32x stable.
  EXPECT_LE(max_err, 0.02 * max_rise)
      << "max ADI error " << max_err << " K over rise " << max_rise << " K";
}

/// Steps `model` with step_adi(dt) until no node and not the sink moves by
/// 1e-12 K in one call; returns the calls taken, or 0 if it never settled.
int settle_adi(StackModel& model, Time dt) {
  const auto field = model.temperatures_k();
  std::vector<double> prev(field.begin(), field.end());
  double prev_sink = model.sink_temp().as_kelvin();
  for (int call = 1; call <= 100000; ++call) {
    model.step_adi(dt);
    const auto now = model.temperatures_k();
    double moved = std::abs(model.sink_temp().as_kelvin() - prev_sink);
    prev_sink = model.sink_temp().as_kelvin();
    for (std::size_t i = 0; i < now.size(); ++i) {
      moved = std::max(moved, std::abs(now[i] - prev[i]));
      prev[i] = now[i];
    }
    if (moved < 1e-12) return call;
  }
  return 0;
}

/// `v` in scientific notation, for RecordProperty.
std::string sci(double v) {
  std::ostringstream os;
  os.precision(3);
  os << std::scientific << v;
  return os.str();
}

/// Largest node difference between two models' fields, Kelvin.
double max_node_diff(const StackModel& a, const StackModel& b) {
  const auto ta = a.temperatures_k();
  const auto tb = b.temperatures_k();
  double diff = 0.0;
  for (std::size_t i = 0; i < ta.size(); ++i) diff = std::max(diff, std::abs(ta[i] - tb[i]));
  return diff;
}

TEST(ThermalKernel, AdiSettlesOntoTheSteadyState) {
  // The 16-high HBM stack and the fleet's 16-high grid geometry.
  const StackSpec specs[] = {hbm_stack_spec(16, 12, 10), scaled_hbm_spec(16, 8, 8, 0.045)};
  for (const StackSpec& spec : specs) {
    const std::string where = std::to_string(spec.floorplan.grid.nx) + "x" +
                              std::to_string(spec.floorplan.grid.ny);
    const std::size_t top = spec.layers.size() - 1;
    const auto apply = [&](StackModel& m, const PowerMap& logic) {
      m.set_layer_power(0, logic);
      for (std::size_t l = 1; l <= top; ++l) {
        m.set_layer_power(l, uniform_power(spec.floorplan, 0.25));
      }
    };
    const double power_in = 10.0 + 0.25 * static_cast<double>(top);

    // Uniform per-layer power (what the fleet injects): the settled field
    // is the steady state.
    StackModel adi{spec};
    StackModel sor{spec};
    apply(adi, uniform_power(spec.floorplan, 10.0));
    apply(sor, uniform_power(spec.floorplan, 10.0));
    const Time dt = Time::sec(adi.stable_step().as_sec() * kAdiDtFactor * 16.0);
    ASSERT_GT(settle_adi(adi, dt), 0) << where << ": step_adi never settled";
    sor.solve_steady(1e-12);
    EXPECT_NEAR(heat_out(adi), power_in, 1e-9 * power_in) << where << ": energy balance";
    EXPECT_NEAR(adi.sink_temp().value(), sor.sink_temp().value(), 1e-6) << where;
    EXPECT_LE(max_node_diff(adi, sor), 1e-6) << where;
    RecordProperty("uniform_max_node_diff_k_" + where, sci(max_node_diff(adi, sor)));

    // Vault-centred logic power: energy still balances and the sink still
    // lands on SOR (the lateral passes conserve each layer's heat), but Lie
    // splitting at the fixed substep leaves a lateral error in the settled
    // field.  The tolerance contract does not cover this pattern; the gap is
    // recorded, not bounded.
    StackModel adi_vault{spec};
    StackModel sor_vault{spec};
    apply(adi_vault, vault_centered_power(spec.floorplan, 10.0));
    apply(sor_vault, vault_centered_power(spec.floorplan, 10.0));
    ASSERT_GT(settle_adi(adi_vault, dt), 0) << where << ": step_adi never settled";
    sor_vault.solve_steady(1e-12);
    EXPECT_NEAR(heat_out(adi_vault), power_in, 1e-9 * power_in) << where << ": energy balance";
    EXPECT_NEAR(adi_vault.sink_temp().value(), sor_vault.sink_temp().value(), 1e-6) << where;
    RecordProperty("vault_centred_max_node_diff_k_" + where,
                   sci(max_node_diff(adi_vault, sor_vault)));
    RecordProperty("vault_centred_peak_rise_k_" + where,
                   sci(sor_vault.peak_over_layers(0, top).value() - spec.ambient.value()));
  }
}

// ---- Docs sync --------------------------------------------------------------

std::string read_doc(const std::string& path) {
  std::ifstream doc{path};
  EXPECT_TRUE(doc.is_open()) << path << " missing";
  std::ostringstream ss;
  ss << doc.rdbuf();
  return ss.str();
}

TEST(ThermalKernelDocsSync, PerformanceAndDesignDocumentTheContracts) {
  const std::string perf = read_doc(std::string{COOLPIM_DOCS_DIR} + "/PERFORMANCE.md");
  for (const char* needle :
       {"bit-identical", "target_clones", "ReferenceSweep", "step_adi", "Thomas",
        "kAdiDtFactor", "## 7. ADI for tall stacks",
        "## 8. Why there is no lane-batched sweep executor"}) {
    EXPECT_NE(perf.find(needle), std::string::npos)
        << needle << " not documented in docs/PERFORMANCE.md";
  }
  const std::string design = read_doc(std::string{COOLPIM_REPO_DIR} + "/DESIGN.md");
  for (const char* needle :
       {"## 13", "step_adi", "ReferenceSweep", "kMaxTransientSubsteps",
        "2% of the explicit temperature rise", "uniform per-layer power"}) {
    EXPECT_NE(design.find(needle), std::string::npos) << needle << " not documented in DESIGN.md";
  }
}

}  // namespace
}  // namespace coolpim::thermal
