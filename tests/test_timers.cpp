// Unit tests for kernel timers: sim::Timers, the counted cancellable
// events behind os::Kernel::timer_wheel(), and os::Kernel::Timer, the
// one-deadline handle protocols keep. Exact deadlines out to far-future
// delays, cancel that destroys the closure, FIFO tie-break among same-tick
// timers, correct interleaving with plain simulator events, a randomized
// differential check against a naive reference, and the handle's arm,
// re-arm and cancel rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hw/cpu.hpp"
#include "os/kernel.hpp"
#include "sim/simulator.hpp"
#include "sim/timers.hpp"

namespace clicsim::sim {
namespace {

TEST(Timers, FiresAtExactDeadline) {
  Simulator sim;
  Timers timers(sim);
  SimTime fired_at = -1;
  timers.schedule(1234, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 1234);
  EXPECT_EQ(timers.fired(), 1u);
  EXPECT_EQ(timers.size(), 0u);
  // A deadline in the past is refused and leaves nothing pending.
  EXPECT_THROW(timers.schedule(-1, [] {}), std::logic_error);
  EXPECT_EQ(timers.size(), 0u);
}

TEST(Timers, FiresAcrossEveryLevelBoundary) {
  // Delays from 1 ns out to ~69 s: far-future deadlines fire exactly.
  Simulator sim;
  Timers timers(sim);
  std::vector<std::pair<SimTime, SimTime>> observed;  // {want, got}
  observed.reserve(16);  // callbacks keep pointers into the vector
  for (const SimTime delay :
       {SimTime{1}, SimTime{63}, SimTime{64}, SimTime{65}, SimTime{4095},
        SimTime{4096}, SimTime{262144}, SimTime{16777216},
        SimTime{1073741824}, SimTime{68719476736}}) {
    observed.emplace_back(delay, -1);
    auto* slot = &observed.back();
    timers.schedule(delay, [&sim, slot] { slot->second = sim.now(); });
  }
  sim.run();
  for (const auto& [want, got] : observed) EXPECT_EQ(got, want);
  EXPECT_EQ(timers.fired(), observed.size());
}

TEST(Timers, CancelPreventsFiringAndDestroysClosure) {
  Simulator sim;
  Timers timers(sim);
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  bool fired = false;
  const auto id = timers.schedule(1000, [&fired, token = std::move(token)] {
    fired = true;
  });
  EXPECT_EQ(timers.size(), 1u);
  EXPECT_TRUE(timers.cancel(id));
  // The closure (and its captures) die at cancel time, not at the deadline.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(timers.size(), 0u);
  EXPECT_FALSE(timers.cancel(id));  // double-cancel reports failure
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(timers.fired(), 0u);
  EXPECT_EQ(timers.cancelled(), 1u);
}

TEST(Timers, CancelAfterFireReturnsFalse) {
  Simulator sim;
  Timers timers(sim);
  const auto id = timers.schedule(10, [] {});
  sim.run();
  EXPECT_FALSE(timers.cancel(id));
  EXPECT_EQ(timers.fired(), 1u);
  EXPECT_EQ(timers.cancelled(), 0u);
}

TEST(Timers, RescheduleAfterCancelUsesNewDeadline) {
  Simulator sim;
  Timers timers(sim);
  SimTime fired_at = -1;
  const auto id = timers.schedule(500, [&] { fired_at = sim.now(); });
  EXPECT_TRUE(timers.cancel(id));
  timers.schedule(900, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 900);
  EXPECT_EQ(timers.fired(), 1u);
  EXPECT_EQ(timers.cancelled(), 1u);
}

TEST(Timers, SameTickTimersFireInArmOrder) {
  Simulator sim;
  Timers timers(sim);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    timers.schedule(777, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Timers, SameTickInterleavesWithPlainEventsByArmOrder) {
  // A timer takes its sequence when armed, so it ranks among same-instant
  // plain events by arming order.
  Simulator sim;
  Timers timers(sim);
  std::vector<int> order;
  timers.schedule(100, [&] { order.push_back(0); });
  sim.at(100, [&] { order.push_back(1); });
  timers.schedule(100, [&] { order.push_back(2); });
  sim.at(100, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Timers, CancelledHeadStillRunsFollowersInOrder) {
  Simulator sim;
  Timers timers(sim);
  std::vector<int> order;
  const auto head = timers.schedule(50, [&] { order.push_back(0); });
  timers.schedule(50, [&] { order.push_back(1); });
  sim.at(50, [&] { order.push_back(2); });
  timers.schedule(50, [&] { order.push_back(3); });
  EXPECT_TRUE(timers.cancel(head));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timers, CallbackMayArmAndCancelTimers) {
  Simulator sim;
  Timers timers(sim);
  std::vector<SimTime> fires;
  EventId victim = kNoEvent;
  timers.schedule(10, [&] {
    fires.push_back(sim.now());
    victim = timers.schedule(100, [&] { fires.push_back(sim.now()); });
    timers.schedule(20, [&] {
      fires.push_back(sim.now());
      EXPECT_TRUE(timers.cancel(victim));
    });
  });
  sim.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 30}));
  EXPECT_EQ(timers.size(), 0u);
}

// Differential check: random arms/cancels from inside the simulation must
// fire in exactly the order a naive "every timer is its own event" model
// produces — i.e. sorted by (deadline, arm sequence), cancelled ones gone.
TEST(Timers, RandomizedDifferentialAgainstReference) {
  Simulator sim;
  Timers timers(sim);
  std::mt19937_64 rng(0xC11Cu);

  struct Ref {
    std::uint64_t arm_order;
    SimTime deadline;
    int tag;
  };
  std::vector<Ref> reference;
  std::vector<int> fired_tags;
  std::vector<std::pair<EventId, int>> live;
  std::uint64_t arm_counter = 0;
  int next_tag = 0;

  // Driver events at randomized times arm and cancel timers while the
  // simulation runs, mixing short and long delays.
  for (int burst = 0; burst < 40; ++burst) {
    const SimTime when = burst * 137;
    sim.at(when, [&, when] {
      for (int i = 0; i < 6; ++i) {
        static constexpr SimTime kSpans[] = {3, 64, 1000, 5000, 70000};
        const SimTime delay =
            static_cast<SimTime>(rng() % kSpans[rng() % 5]) + 1;
        const int tag = next_tag++;
        reference.push_back(Ref{arm_counter++, when + delay, tag});
        live.emplace_back(
            timers.schedule(delay, [&fired_tags, tag] {
              fired_tags.push_back(tag);
            }),
            tag);
      }
      // Cancel a random surviving timer about half the time.
      if (!live.empty() && rng() % 2 == 0) {
        const std::size_t pick = rng() % live.size();
        if (timers.cancel(live[pick].first)) {
          const int tag = live[pick].second;
          std::erase_if(reference, [tag](const Ref& r) { return r.tag == tag; });
        }
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    });
  }
  sim.run();

  std::sort(reference.begin(), reference.end(), [](const Ref& a, const Ref& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline
                                    : a.arm_order < b.arm_order;
  });
  std::vector<int> want;
  want.reserve(reference.size());
  for (const Ref& r : reference) want.push_back(r.tag);
  EXPECT_EQ(fired_tags, want);
  EXPECT_EQ(timers.size(), 0u);
  EXPECT_EQ(timers.fired(), want.size());
}

// --- os::Kernel::Timer -------------------------------------------------------

struct KernelRig {
  Simulator sim;
  hw::HostParams host;
  hw::Cpu cpu{sim, host, "cpu"};
  os::Kernel kernel{sim, cpu};
};

TEST(Timers, KernelTimerArmIsANoOpWhileADeadlineIsPending) {
  KernelRig rig;
  os::Kernel::Timer timer(rig.kernel);
  std::vector<int> fired;
  EXPECT_FALSE(timer.armed());
  timer.arm(100, [&] { fired.push_back(1); });
  EXPECT_TRUE(timer.armed());
  timer.arm(50, [&] { fired.push_back(2); });  // ignored: still armed
  EXPECT_EQ(rig.kernel.timer_wheel().size(), 1u);
  rig.sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(rig.sim.now(), 100);
  EXPECT_FALSE(timer.armed());
}

TEST(Timers, KernelTimerIsEmptyInsideItsCallbackAndMayReArm) {
  KernelRig rig;
  os::Kernel::Timer timer(rig.kernel);
  std::vector<SimTime> fires;
  std::function<void()> tick = [&] {
    EXPECT_FALSE(timer.armed());
    fires.push_back(rig.sim.now());
    if (fires.size() < 3) timer.arm(10, [&] { tick(); });
    EXPECT_EQ(timer.armed(), fires.size() < 3);
  };
  timer.arm(10, [&] { tick(); });
  rig.sim.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(rig.kernel.timer_wheel().fired(), 3u);
  EXPECT_FALSE(timer.armed());
}

TEST(Timers, KernelTimerCancelDestroysTheClosure) {
  KernelRig rig;
  os::Kernel::Timer timer(rig.kernel);
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  timer.arm(1000, [token = std::move(token)] { ADD_FAILURE(); });
  timer.cancel();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(timer.armed());
  timer.cancel();  // cancelling an empty handle does nothing
  EXPECT_EQ(rig.kernel.timer_wheel().cancelled(), 1u);
  // The emptied handle arms afresh.
  bool fired = false;
  timer.arm(5, [&] { fired = true; });
  rig.sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(rig.sim.now(), 5);
}

}  // namespace
}  // namespace clicsim::sim
