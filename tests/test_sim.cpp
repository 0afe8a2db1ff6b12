// Tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace coolpim::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ns(30), [&] { order.push_back(3); });
  q.schedule(Time::ns(10), [&] { order.push_back(1); });
  q.schedule(Time::ns(20), [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, action] = q.pop();
    action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(Time::ns(10), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule(Time::ns(10), [] {});
  (void)q.pop();
  EXPECT_THROW(q.schedule(Time::ns(5), [] {}), SimError);
}

TEST(SimulationTest, RunToCompletion) {
  Simulation sim;
  int fired = 0;
  sim.schedule_in(Time::ns(5), [&] { ++fired; });
  sim.schedule_in(Time::ns(15), [&] { ++fired; });
  const Time end = sim.run_to_completion();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(end, Time::ns(15));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_in(Time::ns(5), [&] { ++fired; });
  sim.schedule_in(Time::ns(50), [&] { ++fired; });
  sim.run_until(Time::ns(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::ns(10));
  EXPECT_TRUE(sim.pending());
  sim.run_to_completion();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_in(Time::ns(10), [&] {
    times.push_back(sim.now().as_ns());
    sim.schedule_in(Time::ns(10), [&] { times.push_back(sim.now().as_ns()); });
  });
  sim.run_to_completion();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  EXPECT_DOUBLE_EQ(times[1], 20.0);
}

TEST(SimulationTest, DrainedRunAdvancesToDeadline) {
  Simulation sim;
  sim.run_until(Time::us(7));
  EXPECT_EQ(sim.now(), Time::us(7));
}

}  // namespace
}  // namespace coolpim::sim
