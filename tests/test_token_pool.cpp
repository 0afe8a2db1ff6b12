// Tests for the PIM token pool (PTP).
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "control/token_pool.hpp"

namespace coolpim::control {
namespace {

TEST(TokenPoolTest, AcquireUpToSize) {
  TokenPool pool{2};
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_FALSE(pool.try_acquire());
  EXPECT_EQ(pool.issued(), 2u);
  EXPECT_EQ(pool.available(), 0u);
}

TEST(TokenPoolTest, ReleaseRecyclesTokens) {
  TokenPool pool{1};
  ASSERT_TRUE(pool.try_acquire());
  pool.release();
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_EQ(pool.total_grants(), 2u);
}

TEST(TokenPoolTest, ReleaseWithoutAcquireAsserts) {
  TokenPool pool{1};
  EXPECT_THROW(pool.release(), SimError);
}

TEST(TokenPoolTest, ShrinkFormulaFromPaper) {
  // PTP_Size = min(PTP_Size - CF, #issuedTokens)  (paper Section IV-B).
  TokenPool pool{10};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pool.try_acquire());
  pool.shrink(2);
  // min(10-2, 4) = 4.
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_FALSE(pool.try_acquire());  // issued == size
}

TEST(TokenPoolTest, ShrinkTakesEffectAsBlocksRetire) {
  TokenPool pool{8};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pool.try_acquire());
  pool.shrink(3);  // min(5, 8) = 5
  EXPECT_EQ(pool.size(), 5u);
  // Three blocks retire before a new one can take a token.
  pool.release();
  EXPECT_FALSE(pool.try_acquire());
  pool.release();
  pool.release();
  EXPECT_FALSE(pool.try_acquire());  // issued 5 == size 5
  pool.release();
  EXPECT_TRUE(pool.try_acquire());
}

TEST(TokenPoolTest, ShrinkFloorsAtZero) {
  TokenPool pool{3};
  pool.shrink(100);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.try_acquire());
  EXPECT_EQ(pool.shrink_count(), 1u);
}

TEST(TokenPoolTest, ShrinkCounterTracksReductions) {
  TokenPool pool{100};
  pool.shrink(4);
  pool.shrink(4);
  EXPECT_EQ(pool.shrink_count(), 2u);
}

}  // namespace
}  // namespace coolpim::control
