// Unit tests for the discrete-event engine: queue determinism, simulator
// control and dispatch order, coroutine primitives, timed resources, RNG
// and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace clicsim::sim {
namespace {

// --- EventQueue ------------------------------------------------------------------

void drain(EventQueue& q) {
  while (!q.empty()) q.run_earliest();
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.emplace(30, [&] { order.push_back(3); });
  q.emplace(10, [&] { order.push_back(1); });
  q.emplace(20, [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.emplace(42, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNever);
  q.emplace(50, [] {});
  q.emplace(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
}

// While a callback runs, its own event is gone from the queue: the vacant
// root must not show through size(), empty() or next_time(), before or
// after the callback's first child takes its place.
TEST(EventQueue, StateReadsFromInsideCallbackAreExact) {
  EventQueue q;
  std::vector<int> seen;
  q.emplace(10, [&] {
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.next_time(), 11);
    q.emplace(12, [] {});  // fills the root
    EXPECT_EQ(q.size(), 7u);
    EXPECT_EQ(q.next_time(), 11);
    q.emplace(10, [] {});
    EXPECT_EQ(q.next_time(), 10);
    seen.push_back(1);
  });
  for (SimTime t : {15, 11, 60, 40, 30, 20}) q.emplace(t, [] {});
  q.emplace(5, [&] {
    EXPECT_EQ(q.size(), 7u);
    EXPECT_EQ(q.next_time(), 10);
    seen.push_back(0);
  });
  EventQueue lone;
  lone.emplace(1, [&] {
    EXPECT_TRUE(lone.empty());
    EXPECT_EQ(lone.size(), 0u);
    EXPECT_EQ(lone.next_time(), kNever);
  });
  lone.run_earliest();
  EXPECT_TRUE(lone.empty());
  drain(q);
  EXPECT_EQ(seen, (std::vector<int>{0, 1}));
}

// A callback may dispatch the next event itself; the nested dispatch must
// not see the outer event's vacated root.
TEST(EventQueue, NestedDispatchRunsTheNextEvent) {
  EventQueue q;
  std::vector<int> order;
  q.emplace(1, [&] {
    order.push_back(1);
    q.run_earliest();
    order.push_back(-1);
  });
  q.emplace(2, [&] { order.push_back(2); });
  q.emplace(3, [&] { order.push_back(3); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, -1, 3}));
}

// --- Simulator --------------------------------------------------------------------

TEST(Simulator, AdvancesTimeMonotonically) {
  Simulator sim;
  SimTime seen = -1;
  for (int i = 0; i < 10; ++i) {
    sim.after(i * 5, [&sim, &seen] {
      EXPECT_GE(sim.now(), seen);
      seen = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(seen, 45);
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.after(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.after(10, [&] { ++fired; });
  sim.after(20, [&] { ++fired; });
  sim.after(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  sim.after(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.after(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.pending());
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.after(1, recurse);
  };
  sim.after(1, recurse);
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, PendingAndNextEventTimeFromInsideCallback) {
  Simulator sim;
  sim.after(10, [&] {
    EXPECT_TRUE(sim.pending());
    EXPECT_EQ(sim.next_event_time(), 30);
    sim.after(5, [] {});
    EXPECT_EQ(sim.next_event_time(), 15);
  });
  sim.after(30, [&] {
    EXPECT_TRUE(sim.pending());
    EXPECT_EQ(sim.next_event_time(), 40);
  });
  sim.after(40, [&] {
    EXPECT_FALSE(sim.pending());
    EXPECT_EQ(sim.next_event_time(), kNever);
    sim.after(0, [] {});
    EXPECT_TRUE(sim.pending());
    EXPECT_EQ(sim.next_event_time(), 40);
  });
  EXPECT_EQ(sim.run(), 5u);
}

// A callback that throws must leave the queue consistent, whether it threw
// before scheduling anything (root still vacant) or after its first child
// took the root. The caller catches, the thrown closure is released, and
// the remaining events run in order.
TEST(Simulator, ThrowingCallbackLeavesQueueConsistent) {
  for (const bool schedule_first : {false, true}) {
    SCOPED_TRACE(schedule_first ? "threw after scheduling" : "threw at once");
    Simulator sim;
    std::vector<SimTime> ran;
    for (int i = 0; i < 40; ++i) {
      const SimTime t = 1 + (i * 37) % 101;  // distinct, shuffled
      sim.at(t, [&sim, &ran] { ran.push_back(sim.now()); });
    }
    auto token = std::make_shared<int>(0);
    sim.at(50, [&, token] {
      if (schedule_first) {
        sim.after(3, [&sim, &ran] { ran.push_back(sim.now()); });
      }
      throw std::runtime_error("callback failure");
    });
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1) << "thrown closure not released";
    EXPECT_EQ(sim.now(), 50);
    EXPECT_TRUE(sim.pending());
    EXPECT_GT(sim.next_event_time(), 50);
    sim.run();
    EXPECT_FALSE(sim.pending());
    EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
    EXPECT_EQ(ran.size(), schedule_first ? 41u : 40u);
  }
}

// Seeded reference-model check of dispatch order. Every callback schedules
// 0-3 children mixing zero delays, dense same-instant ties, near and
// far-future times, and a quarter of callbacks cancel a random earlier
// event, which may be pending, already run or the running one. A std::set
// of (time, seq) keys of the live events is the reference: each event that
// runs must be its minimum, cancel() must succeed exactly for the events
// still in it, and pending() and next_event_time() read from inside a
// callback, before and after a cancel, must match it exactly.
struct DispatchModel {
  using Key = std::pair<SimTime, std::uint64_t>;

  Simulator sim;
  Rng rng;
  int budget;
  std::set<Key> expected;  // the reference model
  std::uint64_t next_seq = 0;
  std::vector<std::pair<Key, EventId>> armed;  // cancellation candidates
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  int order_errors = 0;
  int state_errors = 0;

  DispatchModel(std::uint64_t seed, int events)
      : rng(seed, "dispatch"), budget(events) {}

  SimTime pick_delay() {
    switch (rng.uniform_int(0, 4)) {
      case 0: return 0;
      case 1: return rng.uniform_int(1, 3);
      case 2: return rng.uniform_int(1, 500);
      case 3: return rng.uniform_int(1000, 200000);
      default: return rng.uniform_int(1, 4) * seconds(1);
    }
  }

  void schedule() {
    const Key key{sim.now() + pick_delay(), next_seq++};
    expected.insert(key);
    const EventId id = sim.at(key.first, [this, key] { fire(key); });
    if (rng.bernoulli(0.3)) armed.emplace_back(key, id);
  }

  void check_state() {
    const SimTime model_next =
        expected.empty() ? kNever : expected.begin()->first;
    if (sim.pending() != !expected.empty()) ++state_errors;
    if (sim.next_event_time() != model_next) ++state_errors;
  }

  void fire(Key key) {
    ++executed;
    if (expected.empty() || *expected.begin() != key) {
      ++order_errors;
    }
    expected.erase(key);
    check_state();
    if (!armed.empty() && rng.bernoulli(0.25)) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(armed.size()) - 1));
      const bool live = expected.erase(armed[i].first) == 1;
      if (sim.cancel(armed[i].second) != live) ++state_errors;
      if (live) ++cancelled;
      armed[i] = armed.back();
      armed.pop_back();
      check_state();
    }
    const auto kids = budget > 0 ? rng.uniform_int(0, 3) : 0;
    for (std::int64_t k = 0; k < kids; ++k, --budget) schedule();
  }
};

TEST(Simulator, DispatchOrderMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    DispatchModel m(seed, 6000);
    for (int i = 0; i < 64; ++i) m.schedule();
    m.sim.run();
    EXPECT_EQ(m.order_errors, 0);
    EXPECT_EQ(m.state_errors, 0);
    EXPECT_TRUE(m.expected.empty());
    EXPECT_EQ(m.executed + m.cancelled, m.next_seq);
    EXPECT_EQ(m.sim.events_executed(), m.executed);
    EXPECT_GT(m.executed, 5000u);
    EXPECT_GT(m.cancelled, 100u);
  }
}

TEST(Simulator, CancelFailsForRunningAndFinishedEvents) {
  Simulator sim;
  EventId self = kNoEvent;
  bool inside = false;
  self = sim.at(5, [&] { inside = sim.cancel(self); });
  const EventId done = sim.at(1, [] {});
  sim.run();
  EXPECT_FALSE(inside) << "a running event cancelled itself";
  EXPECT_FALSE(sim.cancel(self));
  EXPECT_FALSE(sim.cancel(done));
  EXPECT_FALSE(sim.cancel(kNoEvent));
  EXPECT_EQ(sim.events_executed(), 2u);
  // A finished event's slot is reused; its id must not cancel the new one.
  bool ran = false;
  sim.after(1, [&] { ran = true; });
  EXPECT_FALSE(sim.cancel(self));
  EXPECT_FALSE(sim.cancel(done));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, NextEventTimeNeverReportsACancelledEvent) {
  Simulator sim;
  std::vector<EventId> early;
  for (SimTime t = 10; t <= 50; t += 10) {
    early.push_back(sim.at(t, [] { ADD_FAILURE(); }));
  }
  sim.at(100, [] {});
  for (const EventId id : early) EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.next_event_time(), 100);
  EXPECT_FALSE(sim.cancel(early.front()));  // already cancelled

  // From inside a callback: a cancelled child of the vacant root, then a
  // cancelled event that has just refilled the root.
  std::vector<SimTime> seen;
  const EventId soon = sim.at(155, [] { ADD_FAILURE(); });
  sim.at(170, [] {});
  sim.at(150, [&] {
    EXPECT_TRUE(sim.cancel(soon));
    seen.push_back(sim.next_event_time());
    const EventId later = sim.at(160, [] { ADD_FAILURE(); });
    seen.push_back(sim.next_event_time());
    EXPECT_TRUE(sim.cancel(later));
    seen.push_back(sim.next_event_time());
  });
  // Between dispatches.
  EXPECT_EQ(sim.run_until(120), 1u);
  seen.push_back(sim.next_event_time());
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{150, 170, 160, 170}));
  EXPECT_EQ(sim.now(), 170);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_FALSE(sim.pending());
}

// --- Coroutines --------------------------------------------------------------------

TEST(Coroutines, DelayResumesAtExactTime) {
  Simulator sim;
  SimTime resumed = 0;
  auto task = [](Simulator& s, SimTime& out) -> Task {
    co_await Delay{s, 1234};
    out = s.now();
  };
  task(sim, resumed);
  sim.run();
  EXPECT_EQ(resumed, 1234);
}

TEST(Coroutines, TriggerWakesAllCurrentWaiters) {
  Simulator sim;
  Trigger trig(sim);
  int woken = 0;
  auto waiter = [](Trigger& t, int& count) -> Task {
    co_await t.wait();
    ++count;
  };
  waiter(trig, woken);
  waiter(trig, woken);
  waiter(trig, woken);
  sim.after(100, [&] { trig.fire(); });
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Coroutines, TriggerDoesNotWakeLateWaiters) {
  Simulator sim;
  Trigger trig(sim);
  bool woken = false;
  sim.after(10, [&] { trig.fire(); });
  sim.after(20, [&]() {
    // Waiting after the fire: not released.
    auto waiter = [](Trigger& t, bool& w) -> Task {
      co_await t.wait();
      w = true;
    };
    waiter(trig, woken);
  });
  sim.run();
  EXPECT_FALSE(woken);
}

TEST(Coroutines, MailboxDeliversInFifoOrder) {
  Simulator sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  auto consumer = [](Mailbox<int>& b, std::vector<int>& out) -> Task {
    for (int i = 0; i < 5; ++i) out.push_back(co_await b.pop());
  };
  consumer(box, got);
  for (int i = 0; i < 5; ++i) {
    sim.after(10 * (i + 1), [&box, i] { box.push(i); });
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Coroutines, MailboxHandsOffDirectlyToWaiters) {
  Simulator sim;
  Mailbox<int> box(sim);
  int a = -1;
  int b = -1;
  auto consumer = [](Mailbox<int>& box, int& out) -> Task {
    out = co_await box.pop();
  };
  consumer(box, a);
  consumer(box, b);
  sim.after(5, [&] {
    box.push(1);
    box.push(2);
  });
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Coroutines, FutureDeliversValueSetBeforeAndAfterAwait) {
  Simulator sim;
  Future<int> early(sim);
  early.set(11);
  int got_early = 0;
  int got_late = 0;
  Future<int> late(sim);
  auto consumer = [](Future<int> f, int& out) -> Task {
    out = co_await f;
  };
  consumer(early, got_early);
  consumer(late, got_late);
  sim.after(10, [&]() mutable { late.set(22); });
  sim.run();
  EXPECT_EQ(got_early, 11);
  EXPECT_EQ(got_late, 22);
}

// --- Resources ---------------------------------------------------------------------

TEST(FifoResource, SerializesUsages) {
  Simulator sim;
  FifoResource bus(sim, "bus");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    bus.submit(100, [&completions, &sim] { completions.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(bus.busy_time(), 300);
}

TEST(FifoResource, IdleGapsDoNotAccumulate) {
  Simulator sim;
  FifoResource bus(sim, "bus");
  bus.submit(50);
  sim.run();
  sim.after(1000, [] {});
  sim.run();
  SimTime done = 0;
  bus.submit(50, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1050);  // starts immediately, not at 50+50
  EXPECT_DOUBLE_EQ(bus.utilization(), 100.0 / 1050.0);
}

TEST(PriorityResource, HigherPriorityRunsFirst) {
  Simulator sim;
  PriorityResource cpu(sim, "cpu");
  std::vector<int> order;
  // Occupy the CPU, then queue user before interrupt work.
  cpu.submit(CpuPriority::kUser, 10, [&] { order.push_back(0); });
  cpu.submit(CpuPriority::kUser, 10, [&] { order.push_back(3); });
  cpu.submit(CpuPriority::kInterrupt, 10, [&] { order.push_back(1); });
  cpu.submit(CpuPriority::kSoftirq, 10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PriorityResource, SubmitFrontJumpsItsPriorityClass) {
  Simulator sim;
  PriorityResource cpu(sim, "cpu");
  std::vector<int> order;
  cpu.submit(CpuPriority::kSoftirq, 10, [&] {
    order.push_back(0);
    // Queued from within item 0: must run before items 1 and 2.
    cpu.submit_front(CpuPriority::kSoftirq, 10, [&] { order.push_back(9); });
  });
  cpu.submit(CpuPriority::kSoftirq, 10, [&] { order.push_back(1); });
  cpu.submit(CpuPriority::kSoftirq, 10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2}));
}

TEST(PriorityResource, TracksBusyTimePerClass) {
  Simulator sim;
  PriorityResource cpu(sim, "cpu");
  cpu.submit(CpuPriority::kInterrupt, 30);
  cpu.submit(CpuPriority::kUser, 70);
  sim.run();
  EXPECT_EQ(cpu.busy_time(CpuPriority::kInterrupt), 30);
  EXPECT_EQ(cpu.busy_time(CpuPriority::kUser), 70);
  EXPECT_EQ(cpu.busy_time(), 100);
}

// --- RNG ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(42, "alpha");
  Rng b(42, "beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(1234);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads, 3000, 200);
}

// --- Stats -------------------------------------------------------------------------

TEST(Stats, SeriesInterpolationAndThresholds) {
  Series s("bw");
  s.add(1, 10);
  s.add(10, 100);
  s.add(100, 200);
  EXPECT_DOUBLE_EQ(s.max_y(), 200);
}

TEST(SeriesTable, RendersSharedGrid) {
  Series a("alpha");
  Series b("beta");
  a.add(1, 10);
  a.add(2, 20);
  b.add(1, 30);
  b.add(2, 40);
  std::ostringstream os;
  print_series_table(os, "x", {&a, &b});
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("40.0"), std::string::npos);
}

}  // namespace
}  // namespace clicsim::sim
