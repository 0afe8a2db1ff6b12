// Tests for the Equation 1 static PTP initialization.
#include <gtest/gtest.h>

#include "control/eq1.hpp"
#include "common/error.hpp"

namespace coolpim::control {
namespace {

TEST(Eq1Test, ForwardEvaluation) {
  Eq1Inputs in;
  in.pim_peak_rate_op_per_ns = 10.0;
  in.pim_intensity = 0.2;
  in.max_blocks = 100;
  in.divergent_warp_ratio = 0.5;
  // rate = 10 * 0.2 * (50/100) * (1 - 0.5) = 0.5 op/ns.
  EXPECT_NEAR(estimate_pim_rate(in, 50), 0.5, 1e-12);
  // Pool size clamps at max_blocks in the forward direction too.
  EXPECT_NEAR(estimate_pim_rate(in, 1000), estimate_pim_rate(in, 100), 1e-12);
}

TEST(Eq1Test, SolveForTarget) {
  Eq1Inputs in;
  in.pim_peak_rate_op_per_ns = 10.0;
  in.pim_intensity = 0.26;
  in.max_blocks = 128;
  in.divergent_warp_ratio = 0.0;
  in.target_rate_op_per_ns = 1.3;
  in.margin_blocks = 0;
  // per-block rate = 2.6/128; 1.3 / (2.6/128) = 64 blocks.
  EXPECT_EQ(initial_ptp_size(in), 64u);
  // With the paper's margin of 4 blocks:
  in.margin_blocks = 4;
  EXPECT_EQ(initial_ptp_size(in), 68u);
}

TEST(Eq1Test, DivergenceShrinksEstimatedRate) {
  Eq1Inputs in;
  in.pim_peak_rate_op_per_ns = 10.0;
  in.pim_intensity = 0.26;
  in.max_blocks = 128;
  in.margin_blocks = 0;
  in.divergent_warp_ratio = 0.0;
  const auto without = initial_ptp_size(in);
  in.divergent_warp_ratio = 0.5;
  const auto with = initial_ptp_size(in);
  // Divergent kernels offload slower, so more blocks may hold tokens.
  EXPECT_GT(with, without);
}

TEST(Eq1Test, ZeroIntensityAllowsEverything) {
  Eq1Inputs in;
  in.pim_intensity = 0.0;
  in.max_blocks = 96;
  EXPECT_EQ(initial_ptp_size(in), 96u);
}

TEST(Eq1Test, ClampsToMaxBlocks) {
  Eq1Inputs in;
  in.pim_peak_rate_op_per_ns = 10.0;
  in.pim_intensity = 0.01;  // very low intensity -> huge pool wanted
  in.max_blocks = 128;
  EXPECT_EQ(initial_ptp_size(in), 128u);
}

TEST(Eq1Test, AtLeastOneBlock) {
  Eq1Inputs in;
  in.pim_peak_rate_op_per_ns = 1000.0;
  in.pim_intensity = 1.0;
  in.max_blocks = 128;
  in.target_rate_op_per_ns = 0.001;
  in.margin_blocks = 0;
  EXPECT_GE(initial_ptp_size(in), 1u);
}

TEST(Eq1Test, TrialRunEstimateOverride) {
  Eq1Inputs in;
  in.max_blocks = 128;
  in.target_rate_op_per_ns = 1.3;
  in.margin_blocks = 4;
  in.estimated_naive_rate_op_per_ns = 3.2;
  // ceil(1.3/3.2 * 128) + 4 = 52 + 4.
  EXPECT_EQ(initial_ptp_size(in), 56u);
  // A slow workload (estimate below the target) gets the full pool.
  in.estimated_naive_rate_op_per_ns = 0.5;
  EXPECT_EQ(initial_ptp_size(in), 128u);
}

TEST(Eq1Test, InvalidInputsThrow) {
  Eq1Inputs in;
  in.max_blocks = 0;
  EXPECT_THROW((void)initial_ptp_size(in), ConfigError);
  in.max_blocks = 10;
  in.target_rate_op_per_ns = 0.0;
  EXPECT_THROW((void)initial_ptp_size(in), ConfigError);
}

// Property: the initial pool never estimates above the target rate by more
// than the margin's worth of blocks.
class Eq1Consistency : public ::testing::TestWithParam<double> {};

TEST_P(Eq1Consistency, PoolMeetsTarget) {
  Eq1Inputs in;
  in.pim_peak_rate_op_per_ns = 10.0;
  in.pim_intensity = GetParam();
  in.max_blocks = 128;
  in.margin_blocks = 0;
  const auto pool = initial_ptp_size(in);
  if (pool < in.max_blocks) {
    // The solved pool size estimates close to (just above) the target.
    const double rate = estimate_pim_rate(in, pool);
    EXPECT_GE(rate, in.target_rate_op_per_ns - 1e-9);
    EXPECT_LE(estimate_pim_rate(in, pool - 1), rate);
  }
}

INSTANTIATE_TEST_SUITE_P(Intensities, Eq1Consistency,
                         ::testing::Values(0.05, 0.1, 0.26, 0.5, 1.0));

}  // namespace
}  // namespace coolpim::control
