// Tests for the deterministic random number generator.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace coolpim {
namespace {

TEST(RngTest, Deterministic) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextInInclusive) {
  Rng rng{13};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.next_in(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformityChiSquareLoose) {
  Rng rng{17};
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 15 dof; 99.9th percentile ~ 37.7.  Generous bound against flakiness.
  EXPECT_LT(chi2, 45.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng{19};
  double sum = 0.0, sum2 = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent{23};
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BernoulliRate) {
  Rng rng{29};
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- Jump-ahead ------------------------------------------------------------

/// True when `a` and `b` produce the same next 8 draws (both are consumed).
bool same_stream(Rng a, Rng b) {
  for (int i = 0; i < 8; ++i) {
    if (a.next_u64() != b.next_u64()) return false;
  }
  return true;
}

Rng stepped(Rng rng, std::uint64_t draws) {
  for (std::uint64_t i = 0; i < draws; ++i) (void)rng.next_u64();
  return rng;
}

TEST(RngJumpTest, JumpEqualsThatManyDraws) {
  std::vector<std::uint64_t> ks{0, 1, 2, 63, 64, 65, 4095, (1u << 20) + 7};
  Rng pick{31};
  for (int i = 0; i < 3; ++i) ks.push_back(pick.next_below(1u << 24));
  for (const std::uint64_t k : ks) {
    SCOPED_TRACE(k);
    const Rng start{37 + k};
    Rng jumped = start;
    jumped.advance(RngJump{k});
    EXPECT_TRUE(same_stream(jumped, stepped(start, k)));
  }
}

TEST(RngJumpTest, JumpsCompose) {
  Rng pick{41};
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t a = pick.next_below(std::uint64_t{1} << 40) + 1;
    const std::uint64_t b = pick.next_below(std::uint64_t{1} << 40) + 1;
    SCOPED_TRACE(std::to_string(a) + " + " + std::to_string(b));
    Rng twice{43};
    twice.advance(RngJump{a});
    twice.advance(RngJump{b});
    Rng once{43};
    once.advance(RngJump{a + b});
    EXPECT_TRUE(same_stream(twice, once));
  }
}

TEST(RngJumpTest, OneJumpAppliedRepeatedly) {
  const RngJump hop{1000};
  Rng jumped{47};
  Rng walked{47};
  for (int i = 0; i < 5; ++i) {
    jumped.advance(hop);
    walked = stepped(walked, 1000);
    EXPECT_TRUE(same_stream(jumped, walked)) << "after hop " << i + 1;
  }
}

TEST(RngJumpTest, TwoToThe128MatchesVignasJump) {
  // Vigna's xoshiro256 jump(), with its published polynomial constants, on a
  // plain copy of the state: it advances by 2^128 draws.
  struct Xoshiro {
    std::array<std::uint64_t, 4> s;
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    std::uint64_t next() {
      const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
      const std::uint64_t t = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= t;
      s[3] = rotl(s[3], 45);
      return result;
    }
    void jump() {
      static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
                                                0xa9582618e03fc9aa, 0x39abdc4529b1661c};
      std::array<std::uint64_t, 4> acc{};
      for (const std::uint64_t word : kJump) {
        for (int b = 0; b < 64; ++b) {
          if (word & (std::uint64_t{1} << b)) {
            for (int k = 0; k < 4; ++k) acc[k] ^= s[k];
          }
          (void)next();
        }
      }
      s = acc;
    }
  };
  constexpr std::uint64_t kSeed = 53;
  SplitMix64 sm{kSeed};  // Rng's own seeding
  Xoshiro vigna{{sm.next(), sm.next(), sm.next(), sm.next()}};
  Rng rng{kSeed};
  EXPECT_EQ(rng.next_u64(), Xoshiro{vigna}.next());  // same starting state

  vigna.jump();
  rng = Rng{kSeed};
  rng.advance(RngJump{~__uint128_t{0}});  // 2^128 - 1 draws ...
  (void)rng.next_u64();                   // ... and one more
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.next_u64(), vigna.next());
}

TEST(RngJumpTest, CachedNormalSurvivesAJump) {
  Rng a{59};
  Rng b{59};
  (void)a.next_normal();
  (void)b.next_normal();  // both now hold a cached second normal
  a.advance(RngJump{10});
  EXPECT_EQ(a.next_normal(), b.next_normal());
}

TEST(SplitMixTest, KnownExpansion) {
  SplitMix64 sm{0};
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2{0};
  EXPECT_EQ(sm2.next(), a);
}

}  // namespace
}  // namespace coolpim
