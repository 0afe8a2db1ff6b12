// Tests for the event-detailed HMC device model.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <vector>

#include "hmc/device.hpp"
#include "obs/names.hpp"

namespace coolpim::hmc {
namespace {

class DeviceFixture : public ::testing::Test {
 protected:
  sim::Simulation sim_;
};

TEST_F(DeviceFixture, SingleReadLatency) {
  Device dev{sim_, hmc20_config()};
  bool done = false;
  Time completion;
  dev.submit({TransactionType::kRead64, 0x1000, 1}, [&](const Response& r) {
    done = true;
    completion = sim_.now();
    EXPECT_EQ(r.tag, 1u);
    EXPECT_EQ(r.errstat, ErrStat::kOk);
  });
  sim_.run_to_completion();
  ASSERT_TRUE(done);
  // Link + crossbar + ACT + CAS + response: tens of nanoseconds.
  EXPECT_GT(completion.as_ns(), 27.5);
  EXPECT_LT(completion.as_ns(), 100.0);
}

TEST_F(DeviceFixture, AddressMapSpreadsBlocksAcrossVaults) {
  const AddressMap map{32, 16};
  const auto a = map.locate(0);
  const auto b = map.locate(64);
  EXPECT_NE(a.vault, b.vault);
  // Wrapping after all vaults moves to the next bank.
  const auto c = map.locate(64ull * 32);
  EXPECT_EQ(c.vault, a.vault);
  EXPECT_NE(c.bank, a.bank);
}

TEST_F(DeviceFixture, SaturatedReadBandwidthIsResponsePipeBound) {
  // Pure reads saturate the outbound pipe: 240 GB/s raw carrying 64 payload
  // bytes per 5-FLIT (80-byte) response = 192 GB/s.
  Device dev{sim_, hmc20_config()};
  constexpr int kReads = 20000;
  int completed = 0;
  Time last;
  for (int i = 0; i < kReads; ++i) {
    dev.submit({TransactionType::kRead64, static_cast<std::uint64_t>(i) * 64, 0},
               [&](const Response&) {
                 ++completed;
                 last = sim_.now();
               });
  }
  sim_.run_to_completion();
  ASSERT_EQ(completed, kReads);
  const double gbps = static_cast<double>(kReads) * 64.0 / last.as_sec() * 1e-9;
  EXPECT_GT(gbps, 0.85 * 192.0);
  EXPECT_LT(gbps, 1.02 * 192.0);
}

TEST_F(DeviceFixture, BalancedMixReachesPeakDataBandwidth) {
  // A balanced read/write mix uses both directions and reaches the paper's
  // 320 GB/s maximum data bandwidth.
  Device dev{sim_, hmc20_config()};
  constexpr int kPairs = 10000;
  Time last;
  for (int i = 0; i < kPairs; ++i) {
    const auto addr = static_cast<std::uint64_t>(i) * 64;
    dev.submit({TransactionType::kRead64, addr, 0}, [&](const Response&) { last = sim_.now(); });
    dev.submit({TransactionType::kWrite64, addr + 64 * 1024, 0},
               [&](const Response&) { last = sim_.now(); });
  }
  sim_.run_to_completion();
  const double gbps = static_cast<double>(kPairs) * 128.0 / last.as_sec() * 1e-9;
  EXPECT_GT(gbps, 0.85 * 320.0);
  EXPECT_LT(gbps, 1.02 * 320.0);
}

TEST_F(DeviceFixture, PimThroughputBeatsReadWritePairs) {
  // The same number of updates moves fewer FLITs as PIM ops, so the PIM run
  // finishes sooner than read+write pairs (the paper's bandwidth argument).
  constexpr int kOps = 4000;
  Time pim_done, rw_done;
  {
    sim::Simulation sim;
    Device dev{sim, hmc20_config()};
    for (int i = 0; i < kOps; ++i) {
      dev.submit({TransactionType::kPimNoReturn, static_cast<std::uint64_t>(i) * 64, 0},
                 [&](const Response&) { pim_done = sim.now(); });
    }
    sim.run_to_completion();
  }
  {
    sim::Simulation sim;
    Device dev{sim, hmc20_config()};
    for (int i = 0; i < kOps; ++i) {
      const auto addr = static_cast<std::uint64_t>(i) * 64;
      dev.submit({TransactionType::kRead64, addr, 0}, [](const Response&) {});
      dev.submit({TransactionType::kWrite64, addr, 0},
                 [&](const Response&) { rw_done = sim.now(); });
    }
    sim.run_to_completion();
  }
  EXPECT_LT(pim_done, rw_done);
}

TEST_F(DeviceFixture, ThermalWarningSetInResponses) {
  Device dev{sim_, hmc20_config()};
  obs::CounterRegistry counters;
  dev.set_observer({}, &counters);
  dev.set_dram_temperature(Celsius{86.0});
  EXPECT_TRUE(dev.warning_active());
  bool saw_warning = false;
  dev.submit({TransactionType::kRead64, 0, 0}, [&](const Response& r) {
    saw_warning = r.errstat == ErrStat::kThermalWarning;
  });
  sim_.run_to_completion();
  EXPECT_TRUE(saw_warning);
  EXPECT_EQ(counters.counter_value(obs::names::kHmcThermalWarnings), 1u);
}

TEST_F(DeviceFixture, DeratedServiceIsSlower) {
  Time cool_done, hot_done;
  for (const double temp : {60.0, 90.0}) {
    sim::Simulation sim;
    Device dev{sim, hmc20_config()};
    dev.set_dram_temperature(Celsius{temp});
    Time done;
    for (int i = 0; i < 200; ++i) {
      dev.submit({TransactionType::kRead64, static_cast<std::uint64_t>(i) * 64 * 32, 0},
                 [&](const Response&) { done = sim.now(); });
    }
    sim.run_to_completion();
    (temp < 85.0 ? cool_done : hot_done) = done;
  }
  EXPECT_LT(cool_done, hot_done);
}

TEST_F(DeviceFixture, ShutdownRejectsRequests) {
  Device dev{sim_, hmc20_config()};
  dev.set_dram_temperature(Celsius{106.0});
  EXPECT_TRUE(dev.is_shut_down());
  EXPECT_THROW(dev.submit({TransactionType::kRead64, 0, 0}, [](const Response&) {}),
               SimError);
}

TEST_F(DeviceFixture, Hmc11RejectsPim) {
  Device dev{sim_, hmc11_config()};
  EXPECT_THROW(dev.submit({TransactionType::kPimNoReturn, 0, 0}, [](const Response&) {}),
               ConfigError);
}

TEST_F(DeviceFixture, StatsAndFlitAccounting) {
  Device dev{sim_, hmc20_config()};
  obs::CounterRegistry counters;
  dev.set_observer({}, &counters);
  dev.submit({TransactionType::kRead64, 0, 0}, [](const Response&) {});
  dev.submit({TransactionType::kPimWithReturn, 64, 0}, [](const Response&) {});
  sim_.run_to_completion();
  EXPECT_EQ(counters.counter_value(obs::names::kHmcRequests), 2u);
  EXPECT_EQ(dev.latency_ns().count(), 2u);
  EXPECT_EQ(dev.total_flits(), 6u + 4u);
  EXPECT_EQ(dev.total_payload_bytes(), 64u + 16u);
}

}  // namespace
}  // namespace coolpim::hmc
