// Chaos soak: randomized cluster-wide fault campaigns (carrier flaps,
// switch-port kills, NIC stalls, Gilbert–Elliott bursts, duplication,
// reordering) against both protocol stacks, enforcing bounded-failure
// liveness — every confirmed send resolves, delivery is exactly-once (or
// at-most-once for cleanly failed sends), the simulator quiesces and no
// orphan timers survive. Every assertion message carries the campaign
// seed: `run_chaos_campaign({.seed = N})` replays the exact storm.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "apps/chaos.hpp"
#include "apps/testbed.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_executor.hpp"

namespace clicsim {
namespace {

// --- FaultPlan mechanics ----------------------------------------------------

TEST(FaultPlan, ScriptedOutageFiresFailAndRestoreOnce) {
  sim::Simulator sim;
  sim::FaultPlan plan(sim, 42);
  int fails = 0;
  int restores = 0;
  const int t = plan.add_target(
      "t", [&] { ++fails; }, [&] { ++restores; });
  plan.fail_between(t, sim::milliseconds(1.0), sim::milliseconds(2.0));
  sim.run_until(sim::milliseconds(10.0));
  EXPECT_EQ(fails, 1);
  EXPECT_EQ(restores, 1);
  EXPECT_EQ(plan.active_failures(), 0);
}

TEST(FaultPlan, OverlappingOutagesNestWithoutGlitches) {
  sim::Simulator sim;
  sim::FaultPlan plan(sim, 42);
  std::vector<std::string> events;
  const int t = plan.add_target(
      "t", [&] { events.push_back("down"); },
      [&] { events.push_back("up"); });
  plan.fail_between(t, sim::milliseconds(1.0), sim::milliseconds(5.0));
  plan.fail_between(t, sim::milliseconds(3.0), sim::milliseconds(8.0));
  sim.run_until(sim::milliseconds(10.0));
  // One down at 1 ms, one up at 8 ms — no spurious toggles at 3/5 ms.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "down");
  EXPECT_EQ(events[1], "up");
}

TEST(FaultPlan, RandomCampaignHealsEverythingByEnd) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Simulator sim;
    sim::FaultPlan plan(sim, seed);
    int down = 0;
    for (int i = 0; i < 6; ++i) {
      plan.add_target(std::to_string(i), [&] { ++down; },
                      [&] { --down; });
    }
    sim::FaultPlan::Campaign c;
    c.end = sim::milliseconds(100.0);
    c.outages = 10;
    plan.randomize(c);
    EXPECT_GT(plan.outages_scheduled(), 0u) << "seed " << seed;
    sim.run_until(sim::milliseconds(100.0));
    EXPECT_EQ(down, 0) << "unhealed outage, seed " << seed;
    EXPECT_EQ(plan.active_failures(), 0) << "seed " << seed;
  }
}

TEST(FaultPlan, SameSeedSchedulesIdenticalCampaigns) {
  // (target, time, went_down) triples — the full observable schedule.
  using Event = std::tuple<int, sim::SimTime, bool>;
  auto trace = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultPlan plan(sim, seed);
    std::vector<Event> events;
    for (int i = 0; i < 4; ++i) {
      plan.add_target(
          std::to_string(i),
          [&events, &sim, i] { events.emplace_back(i, sim.now(), true); },
          [&events, &sim, i] { events.emplace_back(i, sim.now(), false); });
    }
    sim::FaultPlan::Campaign c;
    c.outages = 8;
    plan.randomize(c);
    sim.run_until(sim::seconds(2.0));
    return events;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(FaultPlan, ClusterTargetsCoverLinksPortsAndNics) {
  apps::ClicBed bed;
  sim::FaultPlan plan(bed.sim, 1);
  apps::register_cluster_targets(plan, bed.cluster);
  // 2 nodes × 1 NIC: 2 carriers + 2 NIC stalls + 2 switch ports.
  EXPECT_EQ(plan.target_count(), 6);
}

// --- Full campaigns: CLIC ---------------------------------------------------

class ClicChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClicChaos, CampaignSatisfiesBoundedFailureLiveness) {
  apps::ChaosOptions o;
  o.stack = apps::ChaosStack::kClic;
  o.seed = GetParam();
  const apps::ChaosReport r = apps::run_chaos_campaign(o);
  EXPECT_TRUE(r.liveness_ok()) << "campaign seed " << r.seed << ": "
                               << r.summary();
  EXPECT_EQ(r.resolved, r.messages)
      << "hung send, campaign seed " << r.seed;
  // The storm must actually have happened.
  EXPECT_GT(r.fault_events, 0u) << "campaign seed " << r.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClicChaos,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Full campaigns: adaptive CLIC ------------------------------------------

class ClicChaosAdaptive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClicChaosAdaptive, CampaignSatisfiesBoundedFailureLiveness) {
  apps::ChaosOptions o;
  o.stack = apps::ChaosStack::kClic;
  o.adaptive = true;
  o.seed = GetParam();
  const apps::ChaosReport r = apps::run_chaos_campaign(o);
  EXPECT_TRUE(r.liveness_ok()) << "campaign seed " << r.seed << ": "
                               << r.summary();
  EXPECT_EQ(r.resolved, r.messages)
      << "hung send, campaign seed " << r.seed;
  EXPECT_GT(r.fault_events, 0u) << "campaign seed " << r.seed;
  // The adaptive machinery must actually have engaged under the storm.
  EXPECT_TRUE(r.adaptive) << "campaign seed " << r.seed;
  EXPECT_GT(r.adaptive_stats.rtt_samples, 0u) << "campaign seed " << r.seed;
  // Sharding the same campaign must not change one observable number.
  apps::ChaosOptions sharded = o;
  sharded.shards = 2;
  EXPECT_EQ(apps::run_chaos_campaign(sharded).summary(), r.summary())
      << "campaign seed " << r.seed << " diverged at --shards 2";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClicChaosAdaptive,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Full campaigns: TCP ----------------------------------------------------

class TcpChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpChaos, CampaignSatisfiesBoundedFailureLiveness) {
  apps::ChaosOptions o;
  o.stack = apps::ChaosStack::kTcp;
  o.seed = GetParam();
  o.messages = 12;  // TCP pays a handshake per message; keep the mesh lean
  const apps::ChaosReport r = apps::run_chaos_campaign(o);
  EXPECT_TRUE(r.liveness_ok()) << "campaign seed " << r.seed << ": "
                               << r.summary();
  // TCP never abandons a connection here, so after the faults heal every
  // stream must complete.
  EXPECT_EQ(r.delivered, r.messages)
      << "campaign seed " << r.seed << ": " << r.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpChaos,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Determinism ------------------------------------------------------------

TEST(ChaosDeterminism, SameSeedSameReport) {
  apps::ChaosOptions o;
  o.seed = 99;
  const std::string a = apps::run_chaos_campaign(o).summary();
  const std::string b = apps::run_chaos_campaign(o).summary();
  EXPECT_EQ(a, b);
}

TEST(ChaosDeterminism, AdaptiveSameSeedSameReport) {
  apps::ChaosOptions o;
  o.seed = 99;
  o.adaptive = true;
  const std::string a = apps::run_chaos_campaign(o).summary();
  const std::string b = apps::run_chaos_campaign(o).summary();
  EXPECT_EQ(a, b);
  // The adaptive schedule is a genuinely different (and still
  // deterministic) execution, not a relabeled fixed-clock run.
  apps::ChaosOptions fixed;
  fixed.seed = 99;
  EXPECT_NE(a, apps::run_chaos_campaign(fixed).summary());
}

TEST(ChaosDeterminism, ParallelMatchesSerial) {
  constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14};
  constexpr std::size_t kN = std::size(kSeeds);

  auto campaign = [&](std::size_t i) {
    apps::ChaosOptions o;
    o.seed = kSeeds[i];
    o.messages = 12;
    o.adaptive = (i % 2 == 1);  // mixed fleet: fixed and adaptive stacks
    return apps::run_chaos_campaign(o).summary();
  };

  std::vector<std::string> serial(kN);
  for (std::size_t i = 0; i < kN; ++i) serial[i] = campaign(i);

  for (int threads : {2, 8}) {
    std::vector<std::string> parallel(kN);
    sim::ParallelExecutor pool(threads);
    pool.run_indexed(kN, [&](std::size_t i) { parallel[i] = campaign(i); });
    EXPECT_EQ(parallel, serial) << "-j" << threads
                                << " diverged from serial";
  }
}

}  // namespace
}  // namespace clicsim
