// Shard-invariance and replay determinism of the open-loop traffic
// workloads: every RpcResult/StreamingResult digest (per-request latency
// rows, jitter-buffer counters, final clock) must be byte-identical at
// --shards 1/2/8 and across repeated runs — including with a seeded
// FaultPlan burst-loss campaign running under the workload. Arrival
// schedules are pure functions of (spec, seed, client) and are pinned
// here too.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/workloads.hpp"
#include "sim/time.hpp"

namespace clicsim {
namespace {

apps::Scenario scenario(int shards) {
  apps::Scenario s;
  s.cluster.shards = shards;
  return s;
}

apps::RpcConfig small_rpc(apps::ArrivalSpec::Process process,
                          std::uint64_t fault_seed = 0) {
  apps::RpcConfig cfg;
  cfg.client_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.requests_per_client = 4;
  cfg.arrivals.process = process;
  cfg.arrivals.rate_per_s = 2000.0;
  cfg.arrivals.incast_period = sim::milliseconds(2.0);
  cfg.seed = 7;
  cfg.fault_seed = fault_seed;
  return cfg;
}

apps::StreamingConfig small_streaming(std::uint64_t fault_seed = 0) {
  apps::StreamingConfig cfg;
  cfg.streams = 2;
  cfg.frames_per_stream = 8;
  cfg.frame_bytes = 6000;
  cfg.fragment_bytes = 1216;
  cfg.cadence = sim::milliseconds(1.0);
  cfg.deadline = sim::milliseconds(0.8);
  cfg.seed = 7;
  cfg.fault_seed = fault_seed;
  return cfg;
}

TEST(ArrivalTimes, PureFunctionStrictlyIncreasingPerClientStreams) {
  apps::ArrivalSpec spec;
  spec.process = apps::ArrivalSpec::Process::kPoisson;
  spec.rate_per_s = 5000.0;
  const auto a = apps::arrival_times(spec, 64, 7, 3);
  const auto again = apps::arrival_times(spec, 64, 7, 3);
  EXPECT_EQ(a, again);  // replayable
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1], a[i]);
  }
  EXPECT_GE(a.front(), spec.start);
  // Distinct clients draw from independent streams.
  EXPECT_NE(a, apps::arrival_times(spec, 64, 7, 4));
  // Distinct seeds perturb every client.
  EXPECT_NE(a, apps::arrival_times(spec, 64, 8, 3));

  spec.process = apps::ArrivalSpec::Process::kBursty;
  const auto b = apps::arrival_times(spec, 64, 7, 3);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);

  // Incast is deterministic lockstep: identical for every client.
  spec.process = apps::ArrivalSpec::Process::kIncast;
  EXPECT_EQ(apps::arrival_times(spec, 8, 7, 0),
            apps::arrival_times(spec, 8, 7, 5));
}

TEST(WorkloadDeterminism, RpcClicShardInvariant) {
  const auto cfg = small_rpc(apps::ArrivalSpec::Process::kPoisson);
  const apps::RpcResult base = apps::rpc_clic(scenario(1), cfg);
  EXPECT_EQ(base.in_flight, 0u);
  EXPECT_EQ(base.responses, base.requests);
  for (const int shards : {2, 8}) {
    const apps::RpcResult r = apps::rpc_clic(scenario(shards), cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.latency, base.latency) << "shards=" << shards;
    EXPECT_EQ(r.finished_at, base.finished_at) << "shards=" << shards;
  }
  // Same-process replay (pool reuse, RNG stream isolation).
  EXPECT_EQ(apps::rpc_clic(scenario(1), cfg).digest, base.digest);
}

TEST(WorkloadDeterminism, RpcClicIncastShardInvariant) {
  const auto cfg = small_rpc(apps::ArrivalSpec::Process::kIncast);
  const apps::RpcResult base = apps::rpc_clic(scenario(1), cfg);
  EXPECT_EQ(base.in_flight, 0u);
  for (const int shards : {2, 8}) {
    EXPECT_EQ(apps::rpc_clic(scenario(shards), cfg).digest, base.digest)
        << "shards=" << shards;
  }
}

TEST(WorkloadDeterminism, RpcTcpShardInvariant) {
  const auto cfg = small_rpc(apps::ArrivalSpec::Process::kBursty);
  const apps::RpcResult base = apps::rpc_tcp(scenario(1), cfg);
  EXPECT_EQ(base.in_flight, 0u);
  for (const int shards : {2, 8}) {
    EXPECT_EQ(apps::rpc_tcp(scenario(shards), cfg).digest, base.digest)
        << "shards=" << shards;
  }
}

TEST(WorkloadDeterminism, StreamingClicShardInvariant) {
  const auto cfg = small_streaming();
  const apps::StreamingResult base = apps::streaming_clic(scenario(1), cfg);
  EXPECT_EQ(base.frames, 16u);
  EXPECT_EQ(base.deadline_misses, 0u);  // clean link
  EXPECT_EQ(base.in_flight, 0u);
  for (const int shards : {2, 8}) {
    const apps::StreamingResult r = apps::streaming_clic(scenario(shards), cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.latency, base.latency) << "shards=" << shards;
  }
}

TEST(WorkloadDeterminism, StreamingTcpShardInvariant) {
  const auto cfg = small_streaming();
  const apps::StreamingResult base = apps::streaming_tcp(scenario(1), cfg);
  // TCP handshake + slow-start blow the tight 0.8 ms deadline for early
  // frames; what must hold here is accounting and shard invariance.
  EXPECT_EQ(base.on_time + base.deadline_misses, base.frames);
  EXPECT_EQ(base.in_flight, 0u);
  for (const int shards : {2, 8}) {
    EXPECT_EQ(apps::streaming_tcp(scenario(shards), cfg).digest, base.digest)
        << "shards=" << shards;
  }
}

// The satellite the chaos harness cares about: a seeded burst-loss
// campaign (random carrier/port/DMA outages healed by 10 ms) replays
// byte-identically at any shard count, and paper CLIC's infinite retries
// still answer every request once the faults heal.
TEST(WorkloadDeterminism, FaultCampaignShardInvariant) {
  const auto cfg = small_rpc(apps::ArrivalSpec::Process::kPoisson, 1234);
  const apps::RpcResult base = apps::rpc_clic(scenario(1), cfg);
  EXPECT_EQ(base.in_flight, 0u);  // liveness after the storm heals
  EXPECT_EQ(base.responses, base.requests);
  for (const int shards : {2, 8}) {
    const apps::RpcResult r = apps::rpc_clic(scenario(shards), cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.latency, base.latency) << "shards=" << shards;
    // Carrier outages run the same events at every shard count.
    EXPECT_EQ(r.events, base.events) << "shards=" << shards;
  }
  // A different campaign seed perturbs the rows (the faults really ran).
  const auto other = small_rpc(apps::ArrivalSpec::Process::kPoisson, 4321);
  EXPECT_NE(apps::rpc_clic(scenario(1), other).digest, base.digest);
}

TEST(WorkloadDeterminism, StreamingFaultCampaignShardInvariant) {
  const auto cfg = small_streaming(1234);
  const apps::StreamingResult base = apps::streaming_clic(scenario(1), cfg);
  EXPECT_EQ(base.on_time + base.deadline_misses, base.frames);
  EXPECT_EQ(base.in_flight, 0u);
  for (const int shards : {2, 8}) {
    const apps::StreamingResult r = apps::streaming_clic(scenario(shards), cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.events, base.events) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace clicsim
