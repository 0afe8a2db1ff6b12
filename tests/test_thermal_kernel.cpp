// Thermal fast-path contract tests (docs/PERFORMANCE.md):
//  * the branch-free flat-stencil sweep (StackModel::step) is bit-identical
//    to the retained guarded reference sweep on randomized stacks,
//  * the transient kernel is stable at stable_step() under extreme cooling,
//  * the hot path performs no heap allocations after construction -- checked
//    with this binary's counting global operator new (tests are separate
//    executables, so the override is visible to every allocation here).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hmc/config.hpp"
#include "hmc/link_model.hpp"
#include "power/cooling.hpp"
#include "power/energy_model.hpp"
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

/// Randomized but physically valid stack: 1-5 layers, odd grid shapes,
/// varying materials and sink parameters.
StackSpec random_spec(Rng& rng) {
  StackSpec spec;
  spec.floorplan.vaults_x = 1;
  spec.floorplan.vaults_y = 1;
  spec.floorplan.grid.nx = static_cast<std::size_t>(rng.next_in(1, 24));
  spec.floorplan.grid.ny = static_cast<std::size_t>(rng.next_in(1, 12));
  spec.floorplan.die_width_m = 2e-3 + 10e-3 * rng.next_double();
  spec.floorplan.die_height_m = 2e-3 + 10e-3 * rng.next_double();
  const auto n_layers = static_cast<std::size_t>(rng.next_in(1, 5));
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

TEST(ThermalKernel, FastSweepBitIdenticalToReferenceOnRandomStacks) {
  Rng rng{0x7ea4'd00d'1234'5678ULL};
  for (int trial = 0; trial < 12; ++trial) {
    const StackSpec spec = random_spec(rng);
    StackModel fast{spec};
    StackModel ref{spec};
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
        ref.step_reference(dt);
      }
      expect_fields_bit_identical(fast, ref);
    }
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

  const std::uint64_t ref_before = allocations();
  stack.step_reference(Time::us(10.0));
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

  // apply_power legitimately builds fresh PowerMaps; the no-allocation
  // contract covers the solve and the stats it invalidates.
  apply_bw(240.0);
  const std::uint64_t before = allocations();
  model.solve_steady();
  const double at_240 = model.peak_dram().value();
  EXPECT_EQ(allocations(), before) << "superposed re-solve allocated";
  EXPECT_GT(at_240, at_80);
}

}  // namespace
}  // namespace coolpim::thermal
