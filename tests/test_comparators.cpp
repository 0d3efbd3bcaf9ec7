// Tests for the comparator stacks: PVM (pack/unpack + daemon routing),
// GAMMA (active ports, lightweight syscalls, optional reliability) and VIA
// (user-level descriptor queues, polling, RDMA, unreliable delivery).
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

// --- PVM ------------------------------------------------------------------------

struct PvmWorld {
  apps::PvmBed bed;
  bool ready = false;

  explicit PvmWorld(int nodes, pvm::Config cfg = {})
      : bed([&] {
          os::ClusterConfig cc;
          cc.nodes = nodes;
          return cc;
        }(), tcpip::Config{}, cfg) {
    connect(*this);
    bed.sim().run();
    EXPECT_TRUE(ready);
  }

  static sim::Task connect(PvmWorld& w) { w.ready = co_await w.bed.connect(); }
};

TEST(Pvm, PackSendRecvUnpackRoundTrip) {
  PvmWorld w(2);
  net::Buffer payload = net::Buffer::pattern(5000, 4);
  struct Run {
    static sim::Task tx(pvm::PvmTask& t, net::Buffer d) {
      t.initsend();
      (void)co_await t.pack(std::move(d));
      (void)co_await t.send(1, 33);
    }
    static sim::Task rx(pvm::PvmTask& t, net::Buffer expect, bool* ok) {
      pvm::PvmMessage m = co_await t.recv(0, 33);
      net::Buffer got = co_await t.unpack(m, expect.size());
      *ok = m.tag == 33 && got.content_equals(expect);
    }
  };
  bool ok = false;
  Run::tx(w.bed.task(0), payload);
  Run::rx(w.bed.task(1), payload, &ok);
  w.bed.sim().run();
  EXPECT_TRUE(ok);
}

TEST(Pvm, MultiplePacksConcatenate) {
  PvmWorld w(2);
  struct Run {
    static sim::Task tx(pvm::PvmTask& t) {
      t.initsend();
      (void)co_await t.pack(net::Buffer::pattern(100, 1));
      (void)co_await t.pack(net::Buffer::pattern(200, 2));
      (void)co_await t.send(1, 1);
    }
    static sim::Task rx(pvm::PvmTask& t, bool* ok) {
      pvm::PvmMessage m = co_await t.recv(-1, -1);
      net::Buffer a = co_await t.unpack(m, 100);
      net::Buffer b = co_await t.unpack(m, 200);
      *ok = a.content_equals(net::Buffer::pattern(100, 1)) &&
            b.content_equals(net::Buffer::pattern(200, 2));
    }
  };
  bool ok = false;
  Run::tx(w.bed.task(0));
  Run::rx(w.bed.task(1), &ok);
  w.bed.sim().run();
  EXPECT_TRUE(ok);
}

TEST(Pvm, DirectRouteIsFasterThanDaemonRoute) {
  apps::Scenario daemon;
  apps::Scenario direct;
  direct.pvm.direct_route = true;
  const auto t_daemon = apps::pvm_one_way(daemon, 10000);
  const auto t_direct = apps::pvm_one_way(direct, 10000);
  EXPECT_LT(t_direct, t_daemon);
  // Two daemon hops + relay copies per direction.
  EXPECT_GT(t_daemon - t_direct, sim::microseconds(30));
}

// --- GAMMA ----------------------------------------------------------------------

TEST(Gamma, ActivePortHandlerRunsOnDelivery) {
  apps::GammaBed bed;
  int handled = 0;
  std::int64_t bytes = 0;
  bed.module(1).register_port(3, [&](gamma::Message m) {
    ++handled;
    bytes = m.data.size();
  });
  struct Run {
    static sim::Task go(gamma::GammaModule& m) {
      (void)co_await m.send(1, 3, net::Buffer::zeros(7000));
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(bytes, 7000);
}

TEST(Gamma, MessageIntegrityAcrossFragments) {
  apps::GammaBed bed;
  bed.cluster.set_mtu_all(1500);
  bed.module(1).open_mailbox_port(3);
  net::Buffer payload = net::Buffer::pattern(30000, 5);
  struct Run {
    static sim::Task tx(gamma::GammaModule& m, net::Buffer d) {
      (void)co_await m.send(1, 3, std::move(d));
    }
    static sim::Task rx(gamma::GammaModule& m, net::Buffer expect,
                        bool* ok) {
      gamma::Message got = co_await m.recv(3);
      *ok = got.data.content_equals(expect);
    }
  };
  bool ok = false;
  Run::tx(bed.module(0), payload);
  Run::rx(bed.module(1), payload, &ok);
  bed.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Gamma, UnreliableModeLosesFramesSilently) {
  apps::GammaBed bed;  // GAMMA is best-effort: nothing is retransmitted
  bed.cluster.set_mtu_all(1500);
  bed.cluster.link(0).faults(0).drop_frame_index(1);
  bed.module(1).open_mailbox_port(3);
  struct Run {
    static sim::Task tx(gamma::GammaModule& m) {
      (void)co_await m.send(1, 3, net::Buffer::zeros(5000));
    }
  };
  Run::tx(bed.module(0));
  bed.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(bed.module(1).messages_received(), 0u);  // message torn apart
}

TEST(Gamma, UnregisteredPortDrops) {
  apps::GammaBed bed;
  struct Run {
    static sim::Task go(gamma::GammaModule& m) {
      (void)co_await m.send(1, 99, net::Buffer::zeros(100));
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).dropped_no_port(), 1u);
}

// --- VIA ------------------------------------------------------------------------

struct ViaPair {
  apps::ViaBed bed;
  via::Vi* a;
  via::Vi* b;

  ViaPair() : bed() {
    a = &bed.provider(0).create_vi();
    b = &bed.provider(1).create_vi();
    a->connect(1, b->id());
    b->connect(0, a->id());
  }
};

TEST(Via, SendRecvThroughDescriptorsAndPolling) {
  ViaPair p;
  p.b->post_recv(10000);
  net::Buffer payload = net::Buffer::pattern(8000, 2);
  struct Run {
    static sim::Task tx(via::Vi& vi, net::Buffer d, bool* sent) {
      vi.post_send(std::move(d));
      via::Completion c = co_await vi.poll_wait();
      *sent = c.is_send;
    }
    static sim::Task rx(via::Vi& vi, net::Buffer expect, bool* ok) {
      via::Completion c = co_await vi.poll_wait();
      *ok = !c.is_send && c.data.content_equals(expect);
    }
  };
  bool sent = false;
  bool ok = false;
  Run::tx(*p.a, payload, &sent);
  Run::rx(*p.b, payload, &ok);
  p.bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(ok);
}

TEST(Via, NoPostedDescriptorMeansSilentLoss) {
  ViaPair p;
  struct Run {
    static sim::Task tx(via::Vi& vi) {
      vi.post_send(net::Buffer::zeros(500));
      (void)co_await vi.poll_wait();  // send completion still arrives
    }
  };
  Run::tx(*p.a);
  p.bed.sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(p.b->completions_pending(), 0u);
  EXPECT_EQ(p.b->rx_dropped_no_descriptor(), 1u);
}

TEST(Via, DescriptorTooSmallDropsInError) {
  ViaPair p;
  p.b->post_recv(100);  // descriptor smaller than the message
  struct Run {
    static sim::Task tx(via::Vi& vi) {
      vi.post_send(net::Buffer::zeros(5000));
      (void)co_await vi.poll_wait();
    }
  };
  Run::tx(*p.a);
  p.bed.sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(p.b->rx_dropped_no_descriptor(), 1u);
}

TEST(Via, RdmaWriteFillsRemoteRegion) {
  ViaPair p;
  p.b->register_region(1 << 20);
  struct Run {
    static sim::Task tx(via::Vi& vi) {
      vi.rdma_write(net::Buffer::zeros(60000), 0);
      (void)co_await vi.poll_wait();
      vi.rdma_write(net::Buffer::zeros(60000), 60000);
      (void)co_await vi.poll_wait();
    }
  };
  Run::tx(*p.a);
  p.bed.sim.run();
  EXPECT_EQ(p.b->region_bytes_written(), 120000);
}

// A NIC-resident collective engine takes only its own ethertype off the
// card: VIA traffic to a node whose NIC runs one is still delivered.
TEST(Via, DeliversBesideANicCollectiveEngine) {
  ViaPair p;
  hw::NicCollectiveEngine engine(
      p.bed.cluster.node(1).nic(0), 1,
      {os::Cluster::mac_of(0, 0), os::Cluster::mac_of(1, 0)});
  p.b->post_recv(1000);
  const net::Buffer payload = net::Buffer::pattern(800, 3);
  struct Run {
    static sim::Task rx(via::Vi& vi, net::Buffer expect, bool* ok) {
      via::Completion c = co_await vi.poll_wait();
      *ok = !c.is_send && c.data.content_equals(expect);
    }
  };
  bool ok = false;
  p.a->post_send(payload);
  Run::rx(*p.b, payload, &ok);
  // The receiver polls until a completion appears, so bound the run.
  p.bed.sim.run_until(sim::milliseconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(p.b->rx_dropped_no_descriptor(), 0u);
}

TEST(Via, PollingBurnsCpuWhileWaiting) {
  ViaPair p;
  p.b->post_recv(1000);
  struct Run {
    static sim::Task tx(sim::Simulator& sim, via::Vi& vi) {
      co_await sim::Delay{sim, sim::milliseconds(2)};  // receiver polls idle
      vi.post_send(net::Buffer::zeros(100));
      (void)co_await vi.poll_wait();
    }
    static sim::Task rx(via::Vi& vi) { (void)co_await vi.poll_wait(); }
  };
  Run::tx(p.bed.sim, *p.a);
  Run::rx(*p.b);
  p.bed.sim.run();
  // The receiver's CPU spent essentially the whole wait in user mode.
  EXPECT_GT(p.bed.cluster.node(1).cpu().utilization(), 0.9);
}

}  // namespace
}  // namespace clicsim
