// Determinism regression: the rebuilt engine (slab event heap,
// InlineFunction closures, cancellable timers) must execute the same seeded
// scenario in a bit-identical (time, seq) order every run. Each trial
// rebuilds its cluster from scratch and is fingerprinted by event count,
// final clock and a checksum over protocol/NIC statistics; fingerprints
// must match exactly. Loss injection keeps the retransmit and delayed-ack
// timers churning (armed, cancelled, re-armed), and one variant piles
// explicit kernel-timer cancel/reschedule traffic on top.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/chaos.hpp"
#include "apps/testbed.hpp"
#include "net/buffer_pool.hpp"
#include "os/kernel.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

struct Fingerprint {
  std::uint64_t events;
  sim::SimTime clock;
  std::uint64_t checksum;

  bool operator==(const Fingerprint&) const = default;
};

void mix(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= 0x100000001b3ull;  // FNV-1a step
}

// One fig5-style trial: a seeded lossy 2-node CLIC cluster ping-ponging a
// sweep of message sizes over the reliable channel. Loss forces RTO arms;
// every ack cancels and re-arms them; delayed-ack timers are cancelled by
// piggybacking — exactly the timer churn cancellation must keep
// deterministic.
Fingerprint clic_trial(bool churn_kernel_timers, int shards = 1) {
  os::ClusterConfig cc;
  cc.shards = shards;
  apps::ClicBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  for (int l = 0; l < 2; ++l) {
    for (int d = 0; d < 2; ++d) {
      bed.cluster.link(l).faults(d).set_seed(17 + l * 2 + d);
      bed.cluster.link(l).faults(d).set_drop_probability(0.03);
    }
  }
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);

  if (churn_kernel_timers) {
    // Extra timer traffic that never fires: timers armed and then either
    // cancelled or rescheduled (cancel + re-arm) before their deadline.
    for (int node = 0; node < 2; ++node) {
      os::Kernel& k = bed.cluster.node(node).kernel();
      for (int i = 0; i < 64; ++i) {
        const auto id = k.add_timer(sim::milliseconds(5) + i * 977,
                                    [] { ADD_FAILURE(); });
        if (i % 2 == 0) {
          k.cancel_timer(id);
        } else {
          k.cancel_timer(id);
          const auto re = k.add_timer(sim::milliseconds(7) + i * 131,
                                      [] { ADD_FAILURE(); });
          k.cancel_timer(re);
        }
      }
    }
  }

  struct Run {
    static sim::Task pingpong(clic::ClicModule& a, int* done) {
      for (const std::int64_t size :
           {std::int64_t{16}, std::int64_t{1000}, std::int64_t{16000},
            std::int64_t{120000}}) {
        auto st = co_await a.send(1, 1, 1, net::Buffer::zeros(size),
                                  clic::SendMode::kConfirmed);
        if (!st.ok) co_return;
        ++*done;
      }
    }
    static sim::Task sink(clic::ClicModule& m, int n, int* got) {
      for (int i = 0; i < n; ++i) {
        (void)co_await m.recv(1);
        ++*got;
      }
    }
  };
  int sent = 0;
  int received = 0;
  Run::pingpong(bed.module(0), &sent);
  Run::sink(bed.module(1), 4, &received);
  bed.run();  // drain completely: the final clock is the last event

  EXPECT_EQ(sent, 4);
  EXPECT_EQ(received, 4);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int node = 0; node < 2; ++node) {
    mix(&h, bed.module(node).messages_sent());
    mix(&h, bed.module(node).messages_received());
    hw::Nic& nic = bed.cluster.node(node).nic(0);
    mix(&h, nic.tx_frames());
    mix(&h, nic.rx_frames());
    mix(&h, nic.interrupts_fired());
    mix(&h, bed.cluster.node(node).kernel().timer_wheel().fired());
    mix(&h, bed.cluster.node(node).kernel().timer_wheel().cancelled());
  }
  return {bed.events_executed(), bed.now(), h};
}

// A lossless TCP transfer: delayed-ack and RTO timers, socket
// coroutines, the full two-copy path.
Fingerprint tcp_trial(int shards = 1) {
  os::ClusterConfig cc;
  cc.shards = shards;
  apps::TcpBed bed(cc);
  bed.cluster.set_mtu_all(1500);

  bed.tcp[1]->listen(7);
  struct Run {
    static sim::Task server(tcpip::TcpStack& stack, std::int64_t* got) {
      tcpip::TcpSocket* s = co_await stack.accept(7);
      net::Buffer data = co_await s->recv_exact(300000);
      *got = data.size();
    }
    static sim::Task client(tcpip::TcpStack& stack, int server_node,
                            std::int64_t* pushed) {
      auto& s = stack.create_socket();
      if (!co_await s.connect(server_node, 7)) co_return;
      *pushed = co_await s.send(net::Buffer::zeros(300000));
      s.close();
    }
  };
  std::int64_t got = 0;
  std::int64_t pushed = 0;
  Run::server(*bed.tcp[1], &got);
  Run::client(*bed.tcp[0], 1, &pushed);
  bed.run();

  EXPECT_EQ(got, 300000);
  EXPECT_EQ(pushed, 300000);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int node = 0; node < 2; ++node) {
    hw::Nic& nic = bed.cluster.node(node).nic(0);
    mix(&h, nic.tx_frames());
    mix(&h, nic.rx_frames());
    mix(&h, nic.interrupts_fired());
    mix(&h, bed.cluster.node(node).kernel().timer_wheel().fired());
    mix(&h, bed.cluster.node(node).kernel().timer_wheel().cancelled());
  }
  return {bed.events_executed(), bed.now(), h};
}

TEST(Determinism, LossyClicScenarioIsBitIdenticalAcrossRuns) {
  const Fingerprint a = clic_trial(/*churn_kernel_timers=*/false);
  const Fingerprint b = clic_trial(/*churn_kernel_timers=*/false);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.clock, 0);
}

TEST(Determinism, TimerCancelRescheduleChurnStaysBitIdentical) {
  const Fingerprint a = clic_trial(/*churn_kernel_timers=*/true);
  const Fingerprint b = clic_trial(/*churn_kernel_timers=*/true);
  EXPECT_EQ(a, b);
}

TEST(Determinism, TcpScenarioIsBitIdenticalAcrossRuns) {
  const Fingerprint a = tcp_trial();
  const Fingerprint b = tcp_trial();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.checksum, b.checksum);
}

// Pooling regression: buffer-pool recycling is a host-side optimization
// and must be invisible to the simulation. The same trials run with the
// pool active and with the CLICSIM_NO_POOL bypass (here driven through
// set_pooling_enabled, the in-process form of the same switch) must
// produce bitwise-equal fingerprints — event counts, final clocks and
// statistics checksums.
class PoolingDeterminism : public ::testing::Test {
 protected:
  ~PoolingDeterminism() override {
    net::BufferPool::clear_pooling_override();
  }
};

TEST_F(PoolingDeterminism, LossyClicTrialIdenticalPooledAndUnpooled) {
  net::BufferPool::set_pooling_enabled(true);
  const Fingerprint pooled = clic_trial(/*churn_kernel_timers=*/false);
  net::BufferPool::set_pooling_enabled(false);
  const Fingerprint unpooled = clic_trial(/*churn_kernel_timers=*/false);
  EXPECT_EQ(pooled, unpooled);
  EXPECT_GT(pooled.events, 0u);
}

TEST_F(PoolingDeterminism, TimerChurnTrialIdenticalPooledAndUnpooled) {
  net::BufferPool::set_pooling_enabled(true);
  const Fingerprint pooled = clic_trial(/*churn_kernel_timers=*/true);
  net::BufferPool::set_pooling_enabled(false);
  const Fingerprint unpooled = clic_trial(/*churn_kernel_timers=*/true);
  EXPECT_EQ(pooled, unpooled);
}

TEST_F(PoolingDeterminism, TcpTrialIdenticalPooledAndUnpooled) {
  net::BufferPool::set_pooling_enabled(true);
  const Fingerprint pooled = tcp_trial();
  net::BufferPool::set_pooling_enabled(false);
  const Fingerprint unpooled = tcp_trial();
  EXPECT_EQ(pooled, unpooled);
}

// Intra-scenario PDES: sharding one scenario across worker threads is a
// host-side optimization and must be invisible to the simulation. The
// sharded fingerprints (event counts, final clocks, statistics checksums)
// must equal the single-shard run bit for bit. A 2-node cluster clamps
// --shards 8 to 3 (switch shard + one shard per node) — still the maximal
// cross-shard topology for this scenario.
TEST(ShardedDeterminism, ShardsLossyClicTrialBitIdentical) {
  const Fingerprint base = clic_trial(/*churn_kernel_timers=*/false, 1);
  for (const int shards : {2, 8}) {
    const Fingerprint sharded =
        clic_trial(/*churn_kernel_timers=*/false, shards);
    EXPECT_EQ(base, sharded) << "shards=" << shards;
  }
  EXPECT_GT(base.events, 0u);
}

TEST(ShardedDeterminism, ShardsTimerChurnTrialBitIdentical) {
  const Fingerprint base = clic_trial(/*churn_kernel_timers=*/true, 1);
  for (const int shards : {2, 8}) {
    const Fingerprint sharded =
        clic_trial(/*churn_kernel_timers=*/true, shards);
    EXPECT_EQ(base, sharded) << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, ShardsTcpTrialBitIdentical) {
  const Fingerprint base = tcp_trial(1);
  for (const int shards : {2, 8}) {
    EXPECT_EQ(base, tcp_trial(shards)) << "shards=" << shards;
  }
}

// The chaos soak exercises everything at once — an active sim::FaultPlan
// (randomized outages, split carrier targets, the scripted heal), burst
// loss, duplication and reordering — and its one-line digest must be
// byte-identical at any shard count.
TEST(ShardedDeterminism, ShardsChaosCampaignSummaryBitIdentical) {
  apps::ChaosOptions o;
  o.seed = 11;
  o.shards = 1;
  const std::string base = apps::run_chaos_campaign(o).summary();
  for (const int shards : {2, 8}) {
    o.shards = shards;
    EXPECT_EQ(base, apps::run_chaos_campaign(o).summary())
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace clicsim
