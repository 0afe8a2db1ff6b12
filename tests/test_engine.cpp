// Tests for the GPU epoch execution engine.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "control/baselines.hpp"
#include "control/sw_dynt.hpp"
#include "gpu/engine.hpp"
#include "hmc/throughput_model.hpp"
#include "obs/names.hpp"

namespace coolpim::gpu {
namespace {

LaunchSpec simple_launch(double instr, double reads, double atomics, std::uint64_t blocks) {
  LaunchSpec spec;
  spec.warp_instructions = instr;
  spec.mem.read_txns = reads;
  spec.mem.atomic_ops = atomics;
  spec.blocks = blocks;
  spec.warps = blocks * 8;
  return spec;
}

hmc::EpochService full_service(const hmc::EpochDemand& d) {
  hmc::EpochService s;
  s.served_fraction = 1.0;
  s.reads = d.reads;
  s.writes = d.writes;
  s.pim_ops = d.pim_ops;
  return s;
}

TEST(EngineTest, RunsToCompletion) {
  GpuConfig cfg;
  control::NaivePolicy ctrl;
  ExecutionEngine engine{cfg, {simple_launch(1e6, 1e4, 1e4, 64)}, ctrl};
  EXPECT_FALSE(engine.finished());
  Time now = Time::zero();
  int epochs = 0;
  while (!engine.finished() && epochs < 100000) {
    const auto d = engine.plan(now, Time::us(10));
    now += engine.commit(now, Time::us(10), full_service(d));
    ++epochs;
  }
  EXPECT_TRUE(engine.finished());
  EXPECT_GT(epochs, 1);
}

TEST(EngineTest, LaunchOverheadProducesNoDemand) {
  GpuConfig cfg;
  control::NaivePolicy ctrl;
  ExecutionEngine engine{cfg, {simple_launch(1e6, 1e4, 0, 8)}, ctrl};
  const auto d = engine.plan(Time::zero(), Time::us(10));
  EXPECT_DOUBLE_EQ(d.reads, 0.0);
  EXPECT_DOUBLE_EQ(d.pim_ops, 0.0);
  // Committing consumes only the overhead, not the whole window.
  const Time used = engine.commit(Time::zero(), Time::us(10), full_service(d));
  EXPECT_EQ(used, engine.launch_overhead);
}

TEST(EngineTest, NaiveControllerOffloadsAllAtomics) {
  GpuConfig cfg;
  control::NaivePolicy ctrl;
  ExecutionEngine engine{cfg, {simple_launch(1e6, 0, 1e5, 64)}, ctrl};
  Time now = engine.launch_overhead;
  (void)engine.commit(Time::zero(), engine.launch_overhead, full_service({}));
  const auto d = engine.plan(now, Time::us(10));
  EXPECT_GT(d.pim_ops, 0.0);
  EXPECT_DOUBLE_EQ(d.reads, 0.0);  // no host RMW traffic
  EXPECT_DOUBLE_EQ(engine.pim_fraction(now), 1.0);
}

TEST(EngineTest, NonOffloadingTurnsAtomicsIntoRmw) {
  GpuConfig cfg;
  control::NonOffloadingPolicy ctrl;
  ExecutionEngine engine{cfg, {simple_launch(1e6, 0, 1e5, 64)}, ctrl};
  Time now = engine.launch_overhead;
  (void)engine.commit(Time::zero(), engine.launch_overhead, full_service({}));
  const auto d = engine.plan(now, Time::us(10));
  EXPECT_DOUBLE_EQ(d.pim_ops, 0.0);
  EXPECT_GT(d.reads, 0.0);
  EXPECT_NEAR(d.reads, d.writes, 1e-9);  // one read + one write per RMW
  EXPECT_DOUBLE_EQ(engine.pim_fraction(now), 0.0);
}

TEST(EngineTest, HostAtomicCoalescingReducesRmwTraffic) {
  GpuConfig cfg;
  cfg.host_atomic_coalescing = 0.5;
  control::NonOffloadingPolicy ctrl;
  ExecutionEngine engine{cfg, {simple_launch(1e6, 0, 1e5, 64)}, ctrl};
  (void)engine.commit(Time::zero(), engine.launch_overhead, full_service({}));
  const auto half = engine.plan(engine.launch_overhead, Time::us(10));

  GpuConfig cfg2;
  cfg2.host_atomic_coalescing = 1.0;
  control::NonOffloadingPolicy ctrl2;
  ExecutionEngine engine2{cfg2, {simple_launch(1e6, 0, 1e5, 64)}, ctrl2};
  (void)engine2.commit(Time::zero(), engine2.launch_overhead, full_service({}));
  const auto full = engine2.plan(engine2.launch_overhead, Time::us(10));
  EXPECT_NEAR(half.reads, 0.5 * full.reads, 1e-6);
}

TEST(EngineTest, TokenPoolLimitsPimFraction) {
  GpuConfig cfg;
  control::SwDynTConfig sc;
  sc.use_static_init = false;
  sc.eq1.max_blocks = 32;  // pool of 32 vs 128 resident blocks
  control::SwDynT ctrl{sc};
  ExecutionEngine engine{cfg, {simple_launch(1e7, 0, 1e6, 1000)}, ctrl};
  (void)engine.commit(Time::zero(), engine.launch_overhead, full_service({}));
  const double p = engine.pim_fraction(engine.launch_overhead);
  EXPECT_NEAR(p, 32.0 / 128.0, 0.02);
}

TEST(EngineTest, ServiceFractionSlowsProgress) {
  GpuConfig cfg;
  control::NaivePolicy c1, c2;
  ExecutionEngine fast{cfg, {simple_launch(1e7, 1e5, 0, 64)}, c1};
  ExecutionEngine slow{cfg, {simple_launch(1e7, 1e5, 0, 64)}, c2};
  auto run = [](ExecutionEngine& e, double served) {
    Time now = Time::zero();
    int epochs = 0;
    while (!e.finished() && epochs < 200000) {
      auto d = e.plan(now, Time::us(10));
      auto s = full_service(d);
      s.served_fraction = served;
      s.reads *= served;
      s.pim_ops *= served;
      now += e.commit(now, Time::us(10), s);
      ++epochs;
    }
    return now;
  };
  EXPECT_LT(run(fast, 1.0), run(slow, 0.5));
}

TEST(EngineTest, CommittedOpTotalsMatchLaunchAtomics) {
  // Per-epoch pim_ops/host_atomics increments are fractional; the engine
  // accumulates the exact double totals and emits integer deltas, so the
  // counters must match the launch's atomic budget to within rounding of the
  // final sum -- not drift by up to half an op per epoch the way per-epoch
  // truncation would.
  const double atomics = 123457.0;
  auto run = [](ExecutionEngine& engine, obs::CounterRegistry& counters) {
    engine.set_observer({}, &counters);
    Time now = Time::zero();
    int epochs = 0;
    while (!engine.finished() && epochs < 200000) {
      const auto d = engine.plan(now, Time::us(10));
      now += engine.commit(now, Time::us(10), full_service(d));
      ++epochs;
    }
    ASSERT_TRUE(engine.finished());
    ASSERT_GT(epochs, 10);  // the total really was split across many epochs
  };
  {
    GpuConfig cfg;
    control::NaivePolicy ctrl;  // pim_fraction == 1: everything offloads
    ExecutionEngine engine{cfg, {simple_launch(1e7, 0, atomics, 64)}, ctrl};
    obs::CounterRegistry counters;
    run(engine, counters);
    EXPECT_NEAR(static_cast<double>(counters.counter_value(obs::names::kGpuPimOps)), atomics,
                1.0);
    EXPECT_EQ(counters.counter_value(obs::names::kGpuHostAtomics), 0u);
    EXPECT_EQ(engine.host_atomics_emitted(), 0u);
  }
  {
    GpuConfig cfg;
    control::NonOffloadingPolicy ctrl;  // pim_fraction == 0: all host RMW
    ExecutionEngine engine{cfg, {simple_launch(1e7, 0, atomics, 64)}, ctrl};
    obs::CounterRegistry counters;
    run(engine, counters);
    EXPECT_NEAR(static_cast<double>(counters.counter_value(obs::names::kGpuHostAtomics)),
                atomics, 1.0);
    EXPECT_EQ(engine.host_atomics_emitted(), counters.counter_value(obs::names::kGpuHostAtomics));
    EXPECT_EQ(counters.counter_value(obs::names::kGpuPimOps), 0u);
  }
}

TEST(EngineTest, RestartReplaysFromTheTop) {
  GpuConfig cfg;
  control::NaivePolicy ctrl;
  ExecutionEngine engine{cfg, {simple_launch(1e5, 1e3, 0, 8), simple_launch(1e5, 1e3, 0, 8)},
                         ctrl};
  obs::CounterRegistry counters;
  engine.set_observer({}, &counters);
  Time now = Time::zero();
  auto run = [&] {
    while (!engine.finished()) {
      const auto d = engine.plan(now, Time::us(10));
      now += engine.commit(now, Time::us(10), full_service(d));
    }
  };
  run();
  // The constructor began launch 0 before the registry was attached.
  EXPECT_EQ(counters.counter_value(obs::names::kGpuKernelLaunches), 1u);
  engine.restart();
  EXPECT_FALSE(engine.finished());
  EXPECT_EQ(engine.current_launch(), 0u);
  run();
  EXPECT_EQ(counters.counter_value(obs::names::kGpuKernelLaunches), 3u);
}

TEST(EngineTest, BuildLaunchesFromProfile) {
  graph::WorkloadProfile profile;
  profile.graph_vertices = 1024;
  graph::IterationProfile it;
  it.work_threads = 1000;
  it.compute_warp_instructions = 5000;
  it.atomic_ops = 320;
  it.struct_scan_bytes = 6400;
  profile.iterations.push_back(it);

  GpuConfig cfg;
  const CacheHitModel cache{cfg, 64ull * 1024 * 1024};
  const auto launches = build_launches(profile, cfg, cache);
  ASSERT_EQ(launches.size(), 1u);
  EXPECT_EQ(launches[0].blocks, 4u);  // ceil(1000 / 256)
  EXPECT_EQ(launches[0].warps, 32u);  // ceil(1000 / 32)
  EXPECT_NEAR(launches[0].warp_instructions, 5000.0 + 320.0 / 32.0, 1e-9);
  EXPECT_DOUBLE_EQ(launches[0].mem.atomic_ops, 320.0);
}

TEST(EngineTest, EmptyWorkloadThrows) {
  GpuConfig cfg;
  control::NaivePolicy ctrl;
  EXPECT_THROW((ExecutionEngine{cfg, {}, ctrl}), ConfigError);
}

}  // namespace
}  // namespace coolpim::gpu
