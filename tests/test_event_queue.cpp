// Property tests for sim::EventQueue ordering and the Simulation run_until
// boundary semantics (previously only covered incidentally via test_sim's
// integration cases), plus the EventAction small-buffer contract:
// small captures stay inline (no heap allocation per event), large captures
// take the single-allocation heap path, and move-only callables work.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

// GCC pairs the inlined replacement operator new with std::free and reports a
// false mismatch; the replacement new below really does malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting allocator (this test is its own binary, so the override sees every
// allocation here).  Counter deltas are read only around the calls under test.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort's temporary buffer comes from the nothrow form and goes
// back through the sized delete above, so it must come from malloc as well.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coolpim::sim {
namespace {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

TEST(EventQueueProperty, FifoWithinEveryTimestamp) {
  // Schedule many events over a handful of timestamps in random order; within
  // each timestamp the pop order must equal the schedule order regardless of
  // how the timestamps interleave.
  Rng rng{0x5eed'f1f0};
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    std::map<std::int64_t, std::vector<int>> scheduled;  // time -> insert order
    std::map<std::int64_t, std::vector<int>> popped;
    for (int i = 0; i < 200; ++i) {
      const auto t_ns = static_cast<std::int64_t>(rng.next_below(8));
      scheduled[t_ns].push_back(i);
      q.schedule(Time::ns(static_cast<double>(t_ns)),
                 [&popped, t_ns, i] { popped[t_ns].push_back(i); });
    }
    Time last = Time::zero();
    while (!q.empty()) {
      auto [t, action] = q.pop();
      EXPECT_GE(t, last);  // never travels backwards
      last = t;
      action();
    }
    EXPECT_EQ(popped, scheduled);
  }
}

TEST(EventQueueProperty, NextTimeTracksEarliestEvent) {
  EventQueue q;
  q.schedule(Time::ns(30), [] {});
  EXPECT_EQ(q.next_time(), Time::ns(30));
  q.schedule(Time::ns(10), [] {});
  EXPECT_EQ(q.next_time(), Time::ns(10));
  q.schedule(Time::ns(20), [] {});
  EXPECT_EQ(q.next_time(), Time::ns(10));
  EXPECT_EQ(q.size(), 3u);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), Time::ns(20));
}

TEST(EventQueueProperty, SchedulingAtLastPoppedTimeIsAllowed) {
  // An event may schedule a successor at the *current* time (same-timestamp
  // FIFO handles it); only strictly-past times are rejected.
  EventQueue q;
  q.schedule(Time::ns(10), [] {});
  (void)q.pop();
  EXPECT_NO_THROW(q.schedule(Time::ns(10), [] {}));
  EXPECT_THROW(q.schedule(Time::ps(9999), [] {}), SimError);
}

TEST(EventQueueProperty, ClearResetsSequenceAndPastGuard) {
  EventQueue q;
  q.schedule(Time::ns(50), [] {});
  (void)q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  // After clear() the queue accepts early timestamps again and FIFO order
  // restarts from a fresh sequence counter.
  std::vector<int> order;
  q.schedule(Time::ns(1), [&] { order.push_back(0); });
  q.schedule(Time::ns(1), [&] { order.push_back(1); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulationBoundary, EventExactlyAtDeadlineRuns) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(Time::ns(10), [&] { ++fired; });
  sim.run_until(Time::ns(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::ns(10));
  EXPECT_FALSE(sim.pending());
}

TEST(SimulationBoundary, EventJustPastDeadlineDoesNotRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(Time::ns(10) + Time::ps(1), [&] { ++fired; });
  sim.run_until(Time::ns(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Time::ns(10));  // clock still advances to the deadline
  EXPECT_TRUE(sim.pending());
}

TEST(EventAction, SmallCapturesStayInlineAndAllocationFree) {
  int sum = 0;
  int* target = &sum;  // one pointer: well under kInlineCapacity
  const std::uint64_t before = allocations();
  EventAction a{[target] { *target += 7; }};
  EXPECT_EQ(allocations(), before) << "small capture took the heap path";
  ASSERT_TRUE(a.is_inline());
  a();
  EXPECT_EQ(sum, 7);

  // Moving an inline action relocates in place -- still no allocation.
  EventAction b{std::move(a)};
  EXPECT_EQ(allocations(), before);
  EXPECT_TRUE(b.is_inline());
  b();
  EXPECT_EQ(sum, 14);
}

TEST(EventAction, LargeCapturesFallBackToOneHeapAllocation) {
  std::array<double, 32> payload{};  // 256 bytes > kInlineCapacity
  payload[31] = 42.0;
  double out = 0.0;
  const std::uint64_t before = allocations();
  EventAction a{[payload, &out] { out = payload[31]; }};
  EXPECT_EQ(allocations(), before + 1) << "expected exactly one allocation for the callable";
  EXPECT_FALSE(a.is_inline());

  // Moves of heap-backed actions shuffle the pointer, never reallocate.
  EventAction b{std::move(a)};
  EXPECT_EQ(allocations(), before + 1);
  b();
  EXPECT_EQ(out, 42.0);
}

TEST(EventAction, MoveOnlyCallablesAreAccepted) {
  // std::function rejects this capture; EventAction must not.
  auto flag = std::make_unique<int>(0);
  int* raw = flag.get();
  EventQueue q;
  q.schedule(Time::ns(1), [owned = std::move(flag)] { *owned = 1; });
  auto [t, action] = q.pop();
  (void)t;
  action();
  EXPECT_EQ(*raw, 1);
}

TEST(EventQueueProperty, SteadyScheduleAndPopIsAllocationFree) {
  // After reserve(), a self-rescheduling workload with small captures must
  // run with zero heap allocations -- the tentpole claim for the event
  // kernel (docs/PERFORMANCE.md).
  EventQueue q;
  q.reserve(64);
  std::uint64_t fired = 0;
  for (int i = 0; i < 32; ++i) {
    q.schedule(Time::ns(i), [&fired] { ++fired; });
  }

  const std::uint64_t before = allocations();
  Time now = Time::zero();
  for (int round = 0; round < 10'000; ++round) {
    auto [t, action] = q.pop();
    now = t;
    action();
    q.schedule(now + Time::ns(100), [&fired] { ++fired; });
  }
  EXPECT_EQ(allocations(), before) << "steady schedule/pop cycle allocated";
  EXPECT_EQ(fired, 10'000u);
}

TEST(EventQueueProperty, RandomizedStressMatchesSortedReference) {
  // Heavy mixed schedule/pop traffic against a stable-sorted oracle: the
  // (time, seq) pop order must be the unique total order regardless of heap
  // shape transitions (sift_up/sift_down across arity-4 levels).
  Rng rng{0xdead'4a7e};
  for (int trial = 0; trial < 10; ++trial) {
    EventQueue q;
    struct Ref {
      std::int64_t t_ns;
      int id;
    };
    std::vector<Ref> reference;
    std::vector<int> pop_order;
    int next_id = 0;
    std::int64_t now_ns = 0;

    for (int burst = 0; burst < 40; ++burst) {
      const auto n_push = static_cast<int>(rng.next_in(1, 25));
      for (int i = 0; i < n_push; ++i) {
        const std::int64_t t_ns = now_ns + static_cast<std::int64_t>(rng.next_below(50));
        const int id = next_id++;
        reference.push_back(Ref{t_ns, id});
        q.schedule(Time::ns(static_cast<double>(t_ns)),
                   [&pop_order, id] { pop_order.push_back(id); });
      }
      const auto n_pop = std::min<std::size_t>(q.size(), rng.next_below(20));
      for (std::size_t i = 0; i < n_pop; ++i) {
        auto [t, action] = q.pop();
        now_ns = t.as_ns() >= 0 ? static_cast<std::int64_t>(t.as_ns()) : 0;
        action();
      }
    }
    while (!q.empty()) q.pop().second();

    // Stable sort by time keeps insertion order within a timestamp -- exactly
    // the queue's FIFO guarantee.
    std::stable_sort(reference.begin(), reference.end(),
                     [](const Ref& a, const Ref& b) { return a.t_ns < b.t_ns; });
    std::vector<int> expected;
    expected.reserve(reference.size());
    for (const Ref& r : reference) expected.push_back(r.id);
    EXPECT_EQ(pop_order, expected);
  }
}

TEST(SimulationBoundary, SameTimestampEventsAllRunAtDeadline) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(Time::ns(10), [&order, i] { order.push_back(i); });
  }
  sim.run_until(Time::ns(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace coolpim::sim
