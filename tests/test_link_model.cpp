// Tests for the off-chip link FLIT accounting.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "hmc/link_model.hpp"

namespace coolpim::hmc {
namespace {

TEST(LinkModelTest, Hmc20FlitBudget) {
  const LinkModel link{hmc20_config()};
  // 480 GB/s raw aggregate / 16 B per FLIT = 30 GFLIT/s.
  EXPECT_NEAR(link.flits_per_sec(), 30e9, 1e6);
}

TEST(LinkModelTest, MaxDataBandwidthIs320) {
  // Paper Section III-B: because of packet header overhead the maximum data
  // bandwidth of HMC 2.0 is 320 GB/s out of 480 GB/s aggregate links.
  const LinkModel link{hmc20_config()};
  EXPECT_NEAR(link.max_data_bandwidth().as_gbps(), 320.0, 0.5);
}

TEST(LinkModelTest, FlitDemandMatchesTableOne) {
  const LinkModel link{hmc20_config()};
  TransactionMix mix;
  mix.reads_per_sec = 1e9;
  mix.writes_per_sec = 2e9;
  mix.pim_per_sec = 3e9;
  mix.pim_return_fraction = 0.5;
  // 1e9*6 + 2e9*6 + 3e9*(0.5*3 + 0.5*4) = 6+12+10.5 GFLIT/s.
  EXPECT_NEAR(link.flit_demand(mix), 28.5e9, 1e6);
  EXPECT_TRUE(link.feasible(mix));
}

TEST(LinkModelTest, AdmissionScaleClamps) {
  const LinkModel link{hmc20_config()};
  TransactionMix mix;
  mix.reads_per_sec = 10e9;  // 60 GFLIT/s demanded, 30 available
  EXPECT_NEAR(link.admission_scale(mix), 0.5, 1e-9);
  mix.reads_per_sec = 1e9;
  EXPECT_DOUBLE_EQ(link.admission_scale(mix), 1.0);
  EXPECT_DOUBLE_EQ(link.admission_scale(TransactionMix{}), 1.0);
}

TEST(LinkModelTest, RegularBandwidthWithPim) {
  const LinkModel link{hmc20_config()};
  // No PIM: full 320 GB/s; at 10 op/ns the links carry nothing else.
  EXPECT_NEAR(link.regular_bandwidth_with_pim(0.0).as_gbps(), 320.0, 0.5);
  EXPECT_NEAR(link.regular_bandwidth_with_pim(10e9).as_gbps(), 0.0, 0.5);
  // Monotone decreasing in the PIM rate.
  double prev = 1e18;
  for (double r = 0.0; r <= 6.5e9; r += 0.5e9) {
    const double bw = link.regular_bandwidth_with_pim(r).as_gbps();
    EXPECT_LT(bw, prev + 1e-9);
    prev = bw;
  }
}

TEST(LinkModelTest, InternalBandwidthExceedsExternalWithPim) {
  // Paper Section III-C: each PIM op performs an internal read + write, so
  // internal DRAM traffic can exceed the 320 GB/s external maximum.
  const LinkModel link{hmc20_config()};
  TransactionMix mix;
  mix.pim_per_sec = 1.3e9;
  mix.reads_per_sec = link.regular_bandwidth_with_pim(1.3e9).as_bytes_per_sec() / 64.0;
  EXPECT_TRUE(link.feasible(mix));
  EXPECT_GT(link.internal_dram_bandwidth(mix).as_gbps(), 320.0);
}

TEST(LinkModelTest, PayloadBandwidthExcludesPimWithoutReturn) {
  const LinkModel link{hmc20_config()};
  TransactionMix mix;
  mix.pim_per_sec = 1e9;
  EXPECT_DOUBLE_EQ(link.data_bandwidth(mix).as_gbps(), 0.0);
  mix.pim_return_fraction = 1.0;
  EXPECT_NEAR(link.data_bandwidth(mix).as_gbps(), 16.0, 1e-9);
}

TEST(LinkModelTest, RawBandwidthIsFlitsTimesSixteen) {
  const LinkModel link{hmc20_config()};
  TransactionMix mix;
  mix.reads_per_sec = 1e9;
  EXPECT_NEAR(link.raw_link_bandwidth(mix).as_gbps(), 96.0, 1e-9);  // 6 GFLIT * 16B
}

TEST(LinkModelTest, Hmc11SmallerBudget) {
  const LinkModel link{hmc11_config()};
  EXPECT_NEAR(link.max_data_bandwidth().as_gbps(), 60.0, 0.5);
}

TEST(LinkModelTest, InvalidReadFractionThrows) {
  const LinkModel link{hmc20_config()};
  EXPECT_THROW((void)link.regular_bandwidth_with_pim(0.0, 0.0, 1.5), ConfigError);
}

}  // namespace
}  // namespace coolpim::hmc
