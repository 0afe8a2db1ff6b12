// Tests for the SW-DynT and HW-DynT throttling controllers, the BW-Throttle
// baseline, origin-aware warning coalescing and the watchdog degrade steps.
#include <gtest/gtest.h>

#include "control/baselines.hpp"
#include "control/bw_throttle.hpp"
#include "control/hw_dynt.hpp"
#include "control/sw_dynt.hpp"

namespace coolpim::control {
namespace {

SwDynTConfig sw_config(std::uint32_t pool) {
  SwDynTConfig cfg;
  cfg.use_static_init = false;
  cfg.eq1.max_blocks = pool;
  return cfg;
}

TEST(NaiveControllerTest, AlwaysGrants) {
  NaivePolicy c;
  EXPECT_TRUE(c.acquire_block(Time::zero()));
  EXPECT_DOUBLE_EQ(c.pim_warp_fraction(Time::zero()), 1.0);
  c.on_thermal_warning(Time::ms(1));
  EXPECT_TRUE(c.acquire_block(Time::ms(1)));  // warnings ignored
  EXPECT_EQ(c.warnings_seen(), 1u);
  EXPECT_EQ(c.adjustments(), 0u);
}

TEST(NonOffloadingControllerTest, NeverGrants) {
  NonOffloadingPolicy c;
  EXPECT_FALSE(c.acquire_block(Time::zero()));
  EXPECT_DOUBLE_EQ(c.pim_warp_fraction(Time::zero()), 0.0);
}

TEST(SwDynTTest, StaticInitializationUsesEq1) {
  SwDynTConfig cfg;
  cfg.eq1.max_blocks = 128;
  cfg.eq1.estimated_naive_rate_op_per_ns = 2.6;
  cfg.eq1.target_rate_op_per_ns = 1.3;
  cfg.eq1.margin_blocks = 4;
  SwDynT sw{cfg};
  EXPECT_EQ(sw.initial_pool_size(), 68u);
  EXPECT_EQ(sw.pool().size(), 68u);
}

TEST(SwDynTTest, ShrinksAfterThrottleDelay) {
  auto cfg = sw_config(16);
  cfg.control_factor = 4;
  cfg.throttle_delay = Time::us(100);
  SwDynT sw{cfg};
  // Fill some tokens so the min(issued) clamp is not the limiter.
  for (int i = 0; i < 14; ++i) ASSERT_TRUE(sw.acquire_block(Time::zero()));
  sw.on_thermal_warning(Time::ms(1));
  // Before the interrupt completes the pool is unchanged.
  EXPECT_TRUE(sw.acquire_block(Time::ms(1)));
  EXPECT_EQ(sw.pool().size(), 16u);
  // After T_throttle the reduction is applied on the next runtime action.
  EXPECT_FALSE(sw.acquire_block(Time::ms(1.2)));
  EXPECT_EQ(sw.pool().size(), 12u);
  EXPECT_EQ(sw.adjustments(), 1u);
}

TEST(SwDynTTest, WarningsCoalescedWithinUpdateInterval) {
  auto cfg = sw_config(32);
  cfg.control_factor = 4;
  cfg.throttle_delay = Time::us(1);
  cfg.update_interval = Time::ms(1);
  SwDynT sw{cfg};
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(sw.acquire_block(Time::zero()));
  sw.on_thermal_warning(Time::us(10));
  sw.on_thermal_warning(Time::us(20));   // same excursion: coalesced
  sw.on_thermal_warning(Time::us(900));  // still within the interval
  (void)sw.acquire_block(Time::ms(0.95));
  EXPECT_EQ(sw.adjustments(), 1u);
  EXPECT_EQ(sw.warnings_received(), 3u);
  sw.on_thermal_warning(Time::ms(2));  // new interval
  (void)sw.acquire_block(Time::ms(2.5));
  EXPECT_EQ(sw.adjustments(), 2u);
}

TEST(SwDynTTest, ShadowLaunchesCounted) {
  SwDynT sw{sw_config(1)};
  EXPECT_TRUE(sw.acquire_block(Time::zero()));
  EXPECT_FALSE(sw.acquire_block(Time::zero()));
  EXPECT_EQ(sw.shadow_launches(), 1u);
}

TEST(HwDynTTest, StartsAtMaximum) {
  HwDynTConfig cfg;
  cfg.max_warps_per_sm = 64;
  HwDynT hw{cfg};
  EXPECT_EQ(hw.enabled_warps(), 64u);
  EXPECT_DOUBLE_EQ(hw.pim_warp_fraction(Time::zero()), 1.0);
  EXPECT_TRUE(hw.acquire_block(Time::zero()));  // block granularity unused
}

TEST(HwDynTTest, ReductionVisibleAfterPcuDelay) {
  HwDynTConfig cfg;
  cfg.max_warps_per_sm = 64;
  cfg.control_factor = 8;
  cfg.throttle_delay = Time::us(0.1);
  HwDynT hw{cfg};
  hw.on_thermal_warning(Time::ms(1));
  // Immediately before the PCU update latency elapses: old fraction.
  EXPECT_DOUBLE_EQ(hw.pim_warp_fraction(Time::ms(1)), 1.0);
  // Just after: reduced.
  EXPECT_NEAR(hw.pim_warp_fraction(Time::ms(1.001)), 56.0 / 64.0, 1e-12);
  EXPECT_EQ(hw.adjustments(), 1u);
}

TEST(HwDynTTest, DelayedControlUpdates) {
  // Paper Section IV-C: updates are deliberately delayed until the HMC
  // temperature settles, preventing over-reduction during the transient.
  HwDynTConfig cfg;
  cfg.max_warps_per_sm = 64;
  cfg.control_factor = 8;
  cfg.settle_window = Time::ms(1);
  HwDynT hw{cfg};
  hw.on_thermal_warning(Time::us(100));
  hw.on_thermal_warning(Time::us(200));  // inside the settle window: ignored
  hw.on_thermal_warning(Time::us(900));
  EXPECT_EQ(hw.enabled_warps(), 56u);
  hw.on_thermal_warning(Time::ms(1.2));  // settled: accepted
  EXPECT_EQ(hw.enabled_warps(), 48u);
  EXPECT_EQ(hw.adjustments(), 2u);
}

TEST(HwDynTTest, FloorsAtZeroWarps) {
  HwDynTConfig cfg;
  cfg.max_warps_per_sm = 8;
  cfg.control_factor = 8;
  cfg.settle_window = Time::us(1);
  HwDynT hw{cfg};
  hw.on_thermal_warning(Time::ms(1));
  hw.on_thermal_warning(Time::ms(2));
  EXPECT_EQ(hw.enabled_warps(), 0u);
  EXPECT_DOUBLE_EQ(hw.pim_warp_fraction(Time::ms(3)), 0.0);
}

TEST(ControllerContractTest, ThrottleDelaysOrdered) {
  // HW reacts orders of magnitude faster than SW (paper Fig. 8).
  SwDynT sw{sw_config(8)};
  HwDynT hw{HwDynTConfig{}};
  EXPECT_GT(sw.throttle_delay(), hw.throttle_delay() * 100);
}

// ---- Origin-aware coalescing ------------------------------------------------
// A warning delayed in flight (fault layer) arrives with raised_at < now.
// Coalescing keys on raised_at: a late duplicate of an already-handled
// excursion must not shrink again, however late it is delivered.

TEST(SwDynTTest, StaleDelayedWarningStaysCoalesced) {
  SwDynTConfig cfg = sw_config(64);
  cfg.control_factor = 4;
  cfg.update_interval = Time::ms(2.5);
  cfg.throttle_delay = Time::zero();
  SwDynT sw{cfg};
  // Issue the whole pool so min(PTP - CF, #issued) is not clamped by issuance.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(sw.acquire_block(Time::zero()));
  sw.on_thermal_warning(Time::ms(1), Time::ms(1));
  (void)sw.acquire_block(Time::ms(1));  // applies the pending shrink
  EXPECT_EQ(sw.pool().size(), 60u);
  // Delivered far outside the update interval, but *raised* inside it:
  // the same excursion, already handled.
  sw.on_thermal_warning(Time::ms(6), Time::ms(1.5));
  (void)sw.acquire_block(Time::ms(6));
  EXPECT_EQ(sw.pool().size(), 60u);
  // A genuinely new excursion (fresh raise time) shrinks again.
  sw.on_thermal_warning(Time::ms(6.5), Time::ms(6.5));
  (void)sw.acquire_block(Time::ms(6.5));
  EXPECT_EQ(sw.pool().size(), 56u);
}

TEST(HwDynTTest, StaleDelayedWarningStaysCoalesced) {
  HwDynTConfig cfg;
  cfg.max_warps_per_sm = 64;
  cfg.control_factor = 8;
  cfg.settle_window = Time::ms(2.5);
  HwDynT hw{cfg};
  hw.on_thermal_warning(Time::ms(1), Time::ms(1));
  EXPECT_EQ(hw.enabled_warps(), 56u);
  hw.on_thermal_warning(Time::ms(6), Time::ms(2));  // stale duplicate
  EXPECT_EQ(hw.enabled_warps(), 56u);
  hw.on_thermal_warning(Time::ms(6), Time::ms(6));  // new excursion
  EXPECT_EQ(hw.enabled_warps(), 48u);
}

TEST(BwThrottleTest, ReducesOnWarningWithFloorAndCoalescing) {
  BwThrottleConfig cfg;
  cfg.reduction_step = 0.5;
  cfg.floor = 0.2;
  cfg.settle_window = Time::ms(2.5);
  BwThrottle bw{cfg};
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 1.0);
  bw.on_thermal_warning(Time::ms(1), Time::ms(1));
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.5);
  bw.on_thermal_warning(Time::ms(7), Time::ms(2));  // stale: coalesced
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.5);
  bw.on_thermal_warning(Time::ms(7), Time::ms(7));
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.25);
  bw.on_thermal_warning(Time::ms(20), Time::ms(20));
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.2);  // floored
  EXPECT_EQ(bw.adjustments(), 3u);
}

// ---- Watchdog degrade steps -------------------------------------------------
// With the warning channel silent the watchdog forces a conservative halving
// step, bypassing the coalescing window (there is no feedback to over-count).

TEST(SwDynTTest, WatchdogEngageHalvesPool) {
  SwDynTConfig cfg = sw_config(64);
  cfg.control_factor = 4;
  SwDynT sw{cfg};
  // Issue the whole pool so min(PTP - step, #issued) is not clamped.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(sw.acquire_block(Time::zero()));
  sw.on_watchdog_engage(Time::ms(1));
  EXPECT_EQ(sw.pool().size(), 32u);  // immediate, no interrupt latency
  sw.on_watchdog_engage(Time::ms(2));
  EXPECT_EQ(sw.pool().size(), 16u);
  // Near the bottom the step floors at the control factor.
  sw.on_watchdog_engage(Time::ms(3));
  sw.on_watchdog_engage(Time::ms(4));
  EXPECT_EQ(sw.pool().size(), 4u);
  EXPECT_EQ(sw.adjustments(), 4u);
}

TEST(HwDynTTest, WatchdogEngageHalvesWarps) {
  HwDynTConfig cfg;
  cfg.max_warps_per_sm = 64;
  cfg.control_factor = 8;
  cfg.throttle_delay = Time::us(0.1);
  HwDynT hw{cfg};
  hw.on_watchdog_engage(Time::ms(1));
  EXPECT_EQ(hw.enabled_warps(), 32u);
  // PCU latency still applies: the old fraction is visible until then.
  EXPECT_DOUBLE_EQ(hw.pim_warp_fraction(Time::ms(1)), 1.0);
  EXPECT_NEAR(hw.pim_warp_fraction(Time::ms(1.001)), 0.5, 1e-12);
  hw.on_watchdog_engage(Time::ms(2));
  EXPECT_EQ(hw.enabled_warps(), 16u);
  hw.on_watchdog_engage(Time::ms(3));
  EXPECT_EQ(hw.enabled_warps(), 8u);  // step floors at control_factor
  EXPECT_EQ(hw.adjustments(), 3u);
}

TEST(BwThrottleTest, WatchdogEngageHalvesAdmittedFraction) {
  BwThrottleConfig cfg;
  cfg.floor = 0.2;
  BwThrottle bw{cfg};
  bw.on_watchdog_engage(Time::ms(1));
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.5);
  bw.on_watchdog_engage(Time::ms(2));
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.25);
  bw.on_watchdog_engage(Time::ms(3));
  EXPECT_DOUBLE_EQ(bw.demand_scale(Time::zero()), 0.2);  // floored
}

TEST(ControllerContractTest, DefaultWatchdogEngageActsAsWarning) {
  // Controllers without a dedicated degrade step fall back to treating the
  // engagement as a warning raised now.
  NaivePolicy naive;
  naive.on_watchdog_engage(Time::ms(1));
  EXPECT_EQ(naive.warnings_seen(), 1u);
}

}  // namespace
}  // namespace coolpim::control
