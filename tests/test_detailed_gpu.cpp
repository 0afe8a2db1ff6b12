// Tests for the event-detailed GPU micro-model and its cross-validation of
// the epoch model's latency-hiding assumptions.
#include <gtest/gtest.h>

#include "gpu/detailed.hpp"
#include "obs/names.hpp"

namespace coolpim::gpu {
namespace {

DetailedResult run_warps(std::size_t warps, std::uint64_t ops, std::uint64_t compute,
                         AddressPattern pattern = AddressPattern::kRandom) {
  sim::Simulation sim;
  hmc::Device device{sim, hmc::hmc20_config()};
  GpuConfig cfg;
  DetailedGpu gpu{sim, cfg, device};
  WarpTrace trace;
  trace.memory_ops = ops;
  trace.compute_per_memop = compute;
  trace.pattern = pattern;
  gpu.launch(std::vector<WarpTrace>(warps, trace));
  sim.run_to_completion();
  return gpu.result();
}

TEST(DetailedGpuTest, CompletesAllOps) {
  const auto r = run_warps(4, 200, 4);
  EXPECT_EQ(r.memory_ops, 800u);
  EXPECT_GT(r.completion, Time::zero());
  EXPECT_GT(r.achieved_gbps, 0.0);
}

TEST(DetailedGpuTest, OccupancyHidesLatency) {
  // More resident warps -> more memory-level parallelism -> higher achieved
  // bandwidth, until the memory system saturates.
  const auto w1 = run_warps(1, 400, 2);
  const auto w16 = run_warps(16, 400, 2);
  const auto w128 = run_warps(128, 400, 2);
  EXPECT_GT(w16.achieved_gbps, 2.0 * w1.achieved_gbps);
  EXPECT_GT(w128.achieved_gbps, w16.achieved_gbps);
}

TEST(DetailedGpuTest, SingleWarpBandwidthBoundedByLatency) {
  // One warp with MLP 1: throughput = 64 B / round-trip latency, the same
  // relation the epoch model's latency cap uses.
  const auto r = run_warps(1, 500, 0);
  const double predicted_gbps = 64.0 / (r.avg_latency_ns * 1e-9) * 1e-9;
  EXPECT_NEAR(r.achieved_gbps, predicted_gbps, 0.25 * predicted_gbps);
}

TEST(DetailedGpuTest, ComputeBoundWhenBurstsAreLong) {
  // With long compute bursts the run is issue-bound, so doubling the burst
  // roughly doubles runtime.
  const auto short_burst = run_warps(32, 200, 200);
  const auto long_burst = run_warps(32, 200, 400);
  const double ratio = long_burst.completion / short_burst.completion;
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(DetailedGpuTest, StreamingHitsInL1) {
  // A streaming warp re-touches its own lines only via the miss fill, so the
  // comparison here is PIM (bypass) vs regular (cacheable) with a small
  // footprint: the cacheable run hits, the PIM run cannot.
  sim::Simulation sim;
  hmc::Device device{sim, hmc::hmc20_config()};
  GpuConfig cfg;
  DetailedGpu gpu{sim, cfg, device};
  WarpTrace cached;
  cached.memory_ops = 2000;
  cached.pattern = AddressPattern::kRandom;
  cached.footprint_bytes = 8 * 1024;  // fits in the 16 KB L1
  gpu.launch({cached});
  sim.run_to_completion();
  EXPECT_GT(gpu.result().l1_hits, 1000u);
}

TEST(DetailedGpuTest, PimOpsBypassTheL1) {
  sim::Simulation sim;
  hmc::Device device{sim, hmc::hmc20_config()};
  obs::CounterRegistry counters;
  device.set_observer({}, &counters);
  GpuConfig cfg;
  DetailedGpu gpu{sim, cfg, device};
  WarpTrace pim;
  pim.memory_ops = 500;
  pim.type = hmc::TransactionType::kPimNoReturn;
  pim.footprint_bytes = 8 * 1024;  // would fit -- but PIM is uncacheable
  gpu.launch({pim});
  sim.run_to_completion();
  EXPECT_EQ(gpu.result().l1_hits, 0u);
  EXPECT_EQ(counters.counter_value(obs::names::kHmcRequests), 500u);
}

TEST(DetailedGpuTest, CrossValidatesEpochLatencyConstant) {
  // The epoch model's latency-bound cap uses a single effective *loaded*
  // round-trip latency (GpuConfig::mem_latency).  That constant must sit
  // between the unloaded round trip (few warps, empty queues) and the
  // saturated round trip (hundreds of warps queueing at the HMC).
  const auto unloaded = run_warps(2, 500, 0);
  const auto saturated = run_warps(512, 300, 0);
  const GpuConfig cfg;
  EXPECT_LT(unloaded.avg_latency_ns, cfg.mem_latency.as_ns());
  // The full system queues deeper than this micro-trace (regular traffic
  // shares the links), so the constant may sit somewhat above the measured
  // 512-warp point -- but within 2x of it.
  EXPECT_GT(2.0 * saturated.avg_latency_ns, cfg.mem_latency.as_ns());
}

TEST(DetailedGpuTest, EmptyLaunchThrows) {
  sim::Simulation sim;
  hmc::Device device{sim, hmc::hmc20_config()};
  DetailedGpu gpu{sim, GpuConfig{}, device};
  EXPECT_THROW(gpu.launch({}), ConfigError);
}

}  // namespace
}  // namespace coolpim::gpu
