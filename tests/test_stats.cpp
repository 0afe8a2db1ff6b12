// Tests for counters, summaries and the StatSet.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace coolpim {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.record(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.last(), 9.0);
  // Sample variance of the classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(SummaryTest, EmptyIsZero) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, WelfordMatchesNaiveOnRandomData) {
  Rng rng{123};
  Summary s;
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double() * 100.0;
    xs.push_back(x);
    s.record(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(StatSetTest, NamedAccessAndReset) {
  StatSet set;
  set.counter("reads").add(7);
  set.summary("latency").record(42.0);
  EXPECT_EQ(set.counter_value("reads"), 7u);
  EXPECT_EQ(set.counter_value("missing"), 0u);
  EXPECT_EQ(set.summaries().at("latency").count(), 1u);
  set.reset();
  EXPECT_EQ(set.counter_value("reads"), 0u);
  EXPECT_EQ(set.summaries().at("latency").count(), 0u);
}

}  // namespace
}  // namespace coolpim
