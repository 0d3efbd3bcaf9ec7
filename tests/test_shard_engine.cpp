// Shard-engine unit tests: the conservative-PDES primitives themselves
// (barrier windows, cross-shard mailboxes, lookahead validation) plus the
// topology-level guarantees the testbeds rely on — positive lookahead on
// every cross-shard link and bit-identical sharded execution.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/chaos.hpp"
#include "apps/testbed.hpp"
#include "net/link.hpp"
#include "sim/mailbox.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace clicsim {
namespace {

TEST(ShardGroup, DeclareChannelRejectsNonPositiveLookahead) {
  sim::Simulator home;
  sim::ShardGroup group(home, 2);
  EXPECT_THROW(group.declare_channel(0, 1, 0, "test channel"),
               std::logic_error);
  EXPECT_THROW(group.declare_channel(0, 1, -5, "test channel"),
               std::logic_error);
  EXPECT_NO_THROW(group.declare_channel(0, 1, 1, "test channel"));
  // Intra-shard "channels" impose no window constraint and are ignored.
  EXPECT_NO_THROW(group.declare_channel(1, 1, 0, "self channel"));
}

// A link whose propagation cancels the serialization floor would be a
// zero-lookahead channel; the topology builder must refuse to wire it
// across shards rather than let the window collapse.
TEST(ShardGroup, ClusterBuildRejectsZeroLookaheadCrossShardLink) {
  os::ClusterConfig cc;
  cc.nodes = 2;
  cc.shards = 3;
  cc.link.propagation = -net::kDeliveryFloor;
  EXPECT_THROW(apps::ClicBed bed(cc), std::logic_error);
  // The same physics on one shard has no cross-shard channel to violate.
  cc.shards = 1;
  EXPECT_NO_THROW(apps::ClicBed bed(cc));
}

TEST(ShardGroup, SingleShardDelegatesToHomeSimulator) {
  sim::Simulator home;
  sim::ShardGroup group(home, 1);
  int fired = 0;
  home.at(100, [&fired] { ++fired; });
  EXPECT_EQ(group.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(group.now(), 100);
  EXPECT_EQ(group.events_executed(), home.events_executed());
}

TEST(ShardGroup, CrossShardPostsDeliverInsideWindows) {
  sim::Simulator home;
  sim::ShardGroup group(home, 2);
  const sim::SimTime lookahead = 1000;
  group.declare_channel(0, 1, lookahead, "a->b");
  group.declare_channel(1, 0, lookahead, "b->a");

  // Ping-pong across the shard boundary: each hop schedules the next via
  // the mailbox, always exactly `lookahead` ahead of the sending event.
  struct Hop {
    sim::ShardGroup* group = nullptr;
    int count = 0;
    std::vector<sim::SimTime> times;
    void bounce(int from, sim::SimTime at) {
      times.push_back(at);
      if (++count >= 6) return;
      const sim::SimTime next = at + 1000;
      group->post(from, 1 - from, next,
                  [this, to = 1 - from, next] { bounce(to, next); });
    }
  };
  Hop hop;
  hop.group = &group;
  home.at(0, [&hop] { hop.bounce(0, 0); });
  group.run();

  EXPECT_EQ(hop.count, 6);
  EXPECT_EQ(hop.times,
            (std::vector<sim::SimTime>{0, 1000, 2000, 3000, 4000, 5000}));
  EXPECT_EQ(group.events_executed(), 6u);
  EXPECT_EQ(group.now(), 5000);
  EXPECT_FALSE(group.pending());
}

// Two source shards posting to shard 0 for the same instant must inject in
// ascending source-shard order (the (time, src-shard, post-order) merge
// rule) — run repeatedly, the order is structural, not a race winner.
TEST(ShardGroup, SameTimeCrossShardMergeIsSourceOrdered) {
  for (int rep = 0; rep < 16; ++rep) {
    sim::Simulator home;
    sim::ShardGroup group(home, 3);
    group.declare_channel(1, 0, 500, "1->0");
    group.declare_channel(2, 0, 500, "2->0");

    std::vector<int> order;
    // Seed one event on each source shard; both post to shard 0 at the
    // same absolute time.
    group.shard(1).at(0, [&group, &order] {
      group.post(1, 0, 500, [&order] { order.push_back(1); });
      group.post(1, 0, 500, [&order] { order.push_back(10); });
    });
    group.shard(2).at(0, [&group, &order] {
      group.post(2, 0, 500, [&order] { order.push_back(2); });
    });
    group.run();
    EXPECT_EQ(order, (std::vector<int>{1, 10, 2})) << "rep " << rep;
  }
}

// Sources with very different channel lookaheads posting for the same
// instant still inject source-ascending, FIFO within a source: the merge
// rule keys on the source shard, never on how wide its channel is.
TEST(ShardGroup, SameTimeMergeUnderHeterogeneousLookaheads) {
  for (int rep = 0; rep < 8; ++rep) {
    sim::Simulator home;
    sim::ShardGroup group(home, 4);
    group.declare_channel(1, 0, 300, "1->0");
    group.declare_channel(2, 0, 700, "2->0");
    group.declare_channel(3, 0, 500, "3->0");

    std::vector<int> order;
    // All three sources fire at t = 0 in the same window and post for the
    // same arrival instant (each >= its own channel's lookahead).
    group.shard(1).at(0, [&group, &order] {
      group.post(1, 0, 700, [&order] { order.push_back(1); });
      group.post(1, 0, 700, [&order] { order.push_back(10); });
    });
    group.shard(2).at(0, [&group, &order] {
      group.post(2, 0, 700, [&order] { order.push_back(2); });
    });
    group.shard(3).at(0, [&group, &order] {
      group.post(3, 0, 700, [&order] { order.push_back(3); });
    });
    group.run();
    EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 3})) << "rep " << rep;
  }
}

// A burst large enough to regrow the mailbox's backing vector several
// times must still drain in exact post order (same-time events, so the
// order is pure FIFO tie-breaking), and a second burst must reuse the
// retained capacity with the same guarantee.
TEST(ShardGroup, MailboxFifoPreservedAcrossRegrowth) {
  sim::Simulator home;
  sim::ShardGroup group(home, 2);
  group.declare_channel(1, 0, 100, "1->0");

  constexpr int kPosts = 300;
  std::vector<int> order;
  order.reserve(2 * kPosts);
  for (const sim::SimTime start : {sim::SimTime{0}, sim::SimTime{5000}}) {
    group.shard(1).at(start, [&group, &order, start] {
      for (int i = 0; i < kPosts; ++i) {
        group.post(1, 0, start + 100, [&order, i] { order.push_back(i); });
      }
    });
  }
  group.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kPosts));
  for (int i = 0; i < 2 * kPosts; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i % kPosts) << "slot " << i;
  }
}

TEST(SpscMailbox, DrainReturnsFifoAndLeavesBoxEmpty) {
  sim::SpscMailbox box;
  EXPECT_TRUE(box.empty());
  std::vector<int> seen;
  for (int i = 0; i < 200; ++i) {
    box.post(i, [&seen, i] { seen.push_back(i); });
  }
  EXPECT_EQ(box.size(), 200u);
  std::vector<sim::PostedEvent> out;
  box.drain_into(out);
  EXPECT_TRUE(box.empty());
  ASSERT_EQ(out.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].when, i);
    out[static_cast<std::size_t>(i)].action();
    EXPECT_EQ(seen.back(), i);
  }
}

// Regression for the transitive-wakeup hole: shard 0's only *declared*
// source (shard 2) is idle, but shard 0's own outbound chain 0→1→2 wakes
// it, and it then posts back to shard 0 at t=310 — far earlier than shard
// 0's next queued event at t=1s. The window algebra must hold shard 0 at
// W[0] = E[2] + L[2][0] = 310 via the relaxation E over the lookahead
// graph; bounding it by published next-event times alone would let shard 0
// run to 1s and the returning post would land behind its clock (the
// destination simulator throws "scheduling into the past").
TEST(ShardGroup, TransitiveWakeupBoundsIdleSourceWindows) {
  sim::Simulator home;
  sim::ShardGroup group(home, 3);
  group.declare_channel(0, 1, 100, "0->1");
  group.declare_channel(1, 2, 100, "1->2");
  group.declare_channel(2, 0, 100, "2->0");

  sim::SimTime ring_done = -1;
  home.at(10, [&group, &ring_done] {
    group.post(0, 1, 110, [&group, &ring_done] {
      group.post(1, 2, 210, [&group, &ring_done] {
        group.post(2, 0, 310, [&ring_done] { ring_done = 310; });
      });
    });
  });
  home.at(sim::seconds(1.0), [] {});  // far-future bait on the destination
  EXPECT_NO_THROW(group.run());
  EXPECT_EQ(ring_done, 310);
  EXPECT_EQ(group.now(), sim::seconds(1.0));
}

// Property sweep: random channel graphs (ring + chords, heterogeneous
// lookaheads), random hop chains with idle gaps, and a far-future timer on
// every shard (bait for unbounded run-ahead). The window bound must never
// admit an injection behind a destination clock — Simulator::at throws if
// one does — and every hop must execute at exactly the time it was posted
// for (i.e. no earlier than its channel's lookahead after the sender).
TEST(ShardGroup, WindowBoundNeverAdmitsEventInsideLookahead) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
    auto rnd = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    const int k = 2 + static_cast<int>(rnd() % 4);  // 2..5 shards
    sim::Simulator home;
    sim::ShardGroup group(home, k);
    std::vector<std::vector<sim::SimTime>> L(
        static_cast<std::size_t>(k),
        std::vector<sim::SimTime>(static_cast<std::size_t>(k), 0));
    auto declare = [&](int s, int d, sim::SimTime la) {
      if (s == d || L[static_cast<std::size_t>(s)][static_cast<std::size_t>(
                        d)] != 0) {
        return;
      }
      L[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] = la;
      group.declare_channel(s, d, la, "prop");
    };
    for (int s = 0; s < k; ++s) {
      declare(s, (s + 1) % k, 100 + static_cast<sim::SimTime>(rnd() % 900));
    }
    for (int c = 0; c < k; ++c) {
      declare(static_cast<int>(rnd() % static_cast<std::uint64_t>(k)),
              static_cast<int>(rnd() % static_cast<std::uint64_t>(k)),
              100 + static_cast<sim::SimTime>(rnd() % 900));
    }

    // One hop chain per shard; each hop re-rolls its next destination among
    // the current shard's declared out-edges and posts at now + L (+ a
    // random idle gap every third hop). Chains are sequential (each hop
    // happens-before the next via mailbox + barrier), so the per-chain
    // state needs no synchronization.
    struct Chain {
      sim::ShardGroup* group = nullptr;
      std::vector<std::vector<sim::SimTime>>* L = nullptr;
      std::uint64_t rng = 0;
      int hops_left = 0;
      int executed = 0;
      sim::SimTime last_time = -1;
      void hop(int at_shard, sim::SimTime now) {
        EXPECT_GE(now, last_time);
        last_time = now;
        ++executed;
        if (--hops_left <= 0) return;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const int k2 = group->shards();
        for (int probe = 0; probe < k2; ++probe) {
          const int dst = static_cast<int>((rng + static_cast<std::uint64_t>(
                                                      probe)) %
                                           static_cast<std::uint64_t>(k2));
          const sim::SimTime la =
              (*L)[static_cast<std::size_t>(at_shard)]
                  [static_cast<std::size_t>(dst)];
          if (la == 0) continue;
          const sim::SimTime gap =
              executed % 3 == 0 ? static_cast<sim::SimTime>(rng % 5000) : 0;
          const sim::SimTime when = now + la + gap;
          group->post(at_shard, dst, when,
                      [this, dst, when] { hop(dst, when); });
          return;
        }
        hops_left = 0;  // no out-edge: chain ends
      }
    };
    std::vector<Chain> chains(static_cast<std::size_t>(k));
    int expected_min = 0;
    for (int s = 0; s < k; ++s) {
      Chain& ch = chains[static_cast<std::size_t>(s)];
      ch.group = &group;
      ch.L = &L;
      ch.rng = rnd() | 1;
      ch.hops_left = 8 + static_cast<int>(rnd() % 8);
      expected_min += 1;
      const sim::SimTime start = static_cast<sim::SimTime>(rnd() % 1000);
      group.shard(s).at(start, [&ch, s, start] { ch.hop(s, start); });
      // Far-future bait: with the window algebra unsound, some shard runs
      // to here and a returning post lands behind its clock.
      group.shard(s).at(sim::seconds(1.0) + s, [] {});
    }
    EXPECT_NO_THROW(group.run()) << "seed " << seed;
    int total = 0;
    for (const Chain& ch : chains) total += ch.executed;
    EXPECT_GE(total, expected_min) << "seed " << seed;
  }
}

// Worker threads are spawned once and parked between runs: the same OS
// thread must execute a given shard across consecutive run calls (and it
// is never the controlling thread).
TEST(ShardGroup, PersistentWorkersSurviveAcrossRuns) {
  sim::Simulator home;
  sim::ShardGroup group(home, 2);
  group.declare_channel(0, 1, 500, "a");

  std::thread::id first;
  std::thread::id second;
  group.shard(1).at(100, [&first] { first = std::this_thread::get_id(); });
  group.run_until(1000);
  group.shard(1).at(2000, [&second] { second = std::this_thread::get_id(); });
  group.run_until(3000);

  EXPECT_EQ(first, second);
  EXPECT_NE(first, std::this_thread::get_id());
  EXPECT_EQ(group.now(), 3000);
}

// Engine instrumentation: drained events reconcile with posts, every
// released window is counted, the final all-quiet barrier round is a wait
// but not a window, and every shard has clocked both busy and barrier time.
TEST(ShardGroup, InstrumentationCountersTrackWindowsAndDrains) {
  sim::Simulator home;
  sim::ShardGroup group(home, 2);
  group.declare_channel(0, 1, 1000, "a->b");
  group.declare_channel(1, 0, 1000, "b->a");

  struct Hop {
    sim::ShardGroup* group = nullptr;
    int count = 0;
    void bounce(int from, sim::SimTime at) {
      if (++count >= 6) return;
      const sim::SimTime next = at + 1000;
      group->post(from, 1 - from, next,
                  [this, to = 1 - from, next] { bounce(to, next); });
    }
  };
  Hop hop;
  hop.group = &group;
  home.at(0, [&hop] { hop.bounce(0, 0); });
  group.run();

  EXPECT_EQ(group.cross_shard_posts(), 5u);
  EXPECT_EQ(group.events_drained(), group.cross_shard_posts());
  EXPECT_GE(group.windows_opened(), 5u);  // one per hop at minimum
  EXPECT_EQ(group.barrier_waits(), group.windows_opened() + 1);
  for (int s = 0; s < group.shards(); ++s) {
    EXPECT_GT(group.busy_ns(s), 0u) << "shard " << s;
    EXPECT_GT(group.wait_ns(s), 0u) << "shard " << s;
  }
  EXPECT_GT(group.serial_ns(), 0u);

  // A single-shard group never opens a window at all.
  sim::Simulator solo_home;
  sim::ShardGroup solo(solo_home, 1);
  solo_home.at(10, [] {});
  solo.run();
  EXPECT_EQ(solo.windows_opened(), 0u);
  EXPECT_EQ(solo.barrier_waits(), 0u);
  EXPECT_EQ(solo.events_drained(), 0u);
  EXPECT_EQ(solo.busy_ns(0), 0u);
  EXPECT_EQ(solo.wait_ns(0), 0u);
  EXPECT_EQ(solo.serial_ns(), 0u);
}

// The per-channel matrix must open strictly fewer windows than a uniform
// worst-case (scalar-equivalent) lookahead bound on a multi-tier fabric:
// declaring every shard pair at the global delivery floor reproduces the
// old scalar algebra inside the new engine, and the same workload then
// pays more barrier rounds.
TEST(ShardGroup, MatrixWindowsBeatUniformLookaheadOnFatTree) {
  auto storm_windows = [](bool uniform_floor) {
    os::ClusterConfig cc;
    cc.nodes = 8;
    cc.shards = 4;
    cc.topology = os::TopologySpec::fat_tree();
    apps::ClicBed bed(cc);
    if (uniform_floor) {
      const int k = bed.shards.shards();
      for (int s = 0; s < k; ++s) {
        for (int d = 0; d < k; ++d) {
          if (s != d) {
            bed.shards.declare_channel(s, d, net::kDeliveryFloor,
                                       "uniform floor");
          }
        }
      }
    }
    for (int n = 0; n < cc.nodes; ++n) bed.module(n).bind_port(9);
    struct Run {
      static sim::Task tx(clic::ClicModule& m, int dst, int* ok) {
        auto st = co_await m.send(9, dst, 9, net::Buffer::zeros(20000),
                                  clic::SendMode::kConfirmed);
        if (st.ok) ++*ok;
      }
      static sim::Task rx(clic::ClicModule& m, int* got) {
        (void)co_await m.recv(9);
        ++*got;
      }
    };
    std::vector<int> ok(static_cast<std::size_t>(cc.nodes), 0);
    std::vector<int> got(static_cast<std::size_t>(cc.nodes), 0);
    for (int n = 0; n < cc.nodes; ++n) {
      const int dst = (n + 1) % cc.nodes;
      bed.sim_of(n).at(0, [&bed, n, dst, &ok] {
        Run::tx(bed.module(n), dst, &ok[static_cast<std::size_t>(n)]);
      });
      Run::rx(bed.module(dst), &got[static_cast<std::size_t>(dst)]);
    }
    bed.run();
    int delivered = 0;
    for (const int g : got) delivered += g;
    EXPECT_EQ(delivered, cc.nodes);
    return bed.shards.windows_opened();
  };

  const std::uint64_t matrix = storm_windows(false);
  const std::uint64_t uniform = storm_windows(true);
  EXPECT_GT(matrix, 0u);
  EXPECT_LT(matrix, uniform);
}

TEST(ShardGroup, RunUntilLeavesEveryShardClockAtBound) {
  sim::Simulator home;
  sim::ShardGroup group(home, 3);
  group.declare_channel(0, 1, 500, "a");
  group.declare_channel(0, 2, 500, "b");
  int fired = 0;
  group.shard(1).at(250, [&fired] { ++fired; });
  group.run_until(10000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(group.now(), 10000);
  for (int i = 0; i < group.shards(); ++i) {
    EXPECT_EQ(group.shard(i).now(), 10000) << "shard " << i;
  }
  // And an empty follow-up window is a no-op that stays at the bound.
  EXPECT_EQ(group.run_until(10000), 0u);
  EXPECT_EQ(group.now(), 10000);
}

TEST(ShardGroup, WorkerExceptionPropagatesToCaller) {
  sim::Simulator home;
  sim::ShardGroup group(home, 2);
  group.declare_channel(0, 1, 500, "a");
  group.shard(1).at(100, [] { throw std::runtime_error("shard boom"); });
  EXPECT_THROW(group.run(), std::runtime_error);
}

// End-to-end: a sharded 8-node CLIC all-neighbors run must match the
// single-shard run event for event (count, clock, delivery totals).
TEST(ShardGroup, ShardedClicBedMatchesSingleShardRun) {
  auto trial = [](int shards) {
    os::ClusterConfig cc;
    cc.nodes = 8;
    cc.shards = shards;
    apps::ClicBed bed(cc);
    for (int n = 0; n < cc.nodes; ++n) bed.module(n).bind_port(9);

    struct Run {
      static sim::Task tx(clic::ClicModule& m, int dst, int* ok) {
        auto st = co_await m.send(9, dst, 9, net::Buffer::zeros(20000),
                                  clic::SendMode::kConfirmed);
        if (st.ok) ++*ok;
      }
      static sim::Task rx(clic::ClicModule& m, int* got) {
        (void)co_await m.recv(9);
        ++*got;
      }
    };
    // One counter slot per node: a node's events run on its shard's
    // thread, so shared plain ints here would race under --shards > 1.
    std::vector<int> ok(static_cast<std::size_t>(cc.nodes), 0);
    std::vector<int> got(static_cast<std::size_t>(cc.nodes), 0);
    for (int n = 0; n < cc.nodes; ++n) {
      const int dst = (n + 1) % cc.nodes;
      bed.sim_of(n).at(0, [&bed, n, dst, &ok] {
        Run::tx(bed.module(n), dst, &ok[static_cast<std::size_t>(n)]);
      });
      Run::rx(bed.module(dst), &got[static_cast<std::size_t>(dst)]);
    }
    bed.run();
    int ok_total = 0;
    int got_total = 0;
    for (int n = 0; n < cc.nodes; ++n) {
      ok_total += ok[static_cast<std::size_t>(n)];
      got_total += got[static_cast<std::size_t>(n)];
    }
    EXPECT_EQ(ok_total, cc.nodes);
    EXPECT_EQ(got_total, cc.nodes);
    struct Result {
      std::uint64_t events;
      sim::SimTime clock;
      bool operator==(const Result&) const = default;
    };
    return Result{bed.events_executed(), bed.now()};
  };

  const auto base = trial(1);
  EXPECT_GT(base.events, 0u);
  for (const int shards : {2, 4, 9}) {
    EXPECT_EQ(base, trial(shards)) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace clicsim
