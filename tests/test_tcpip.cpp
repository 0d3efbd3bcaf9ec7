// Tests for the TCP/IP baseline stack: the IP layer's one-frame-per-datagram
// contract and TCP state machine behaviours (handshake, flow/congestion
// control mechanics, Nagle, zero windows, retransmission).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "apps/testbed.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

using apps::TcpBed;

// --- IP layer ---------------------------------------------------------------------

TEST(IpLayer, RejectsDatagramsLargerThanTheMtu) {
  TcpBed bed;
  bed.cluster.set_mtu_all(1500);

  struct Sink : tcpip::IpTransport {
    std::vector<net::Buffer> datagrams;
    void datagram_received(int, net::HeaderBlob, net::Buffer payload,
                           sim::CpuPriority) override {
      datagrams.push_back(std::move(payload));
    }
  } sink;
  bed.ip[1]->register_transport(200, &sink);

  // 20 bytes of IP and 20 of L4 header leave 1460 payload bytes per frame.
  const std::int64_t room = 1500 - tcpip::kIpHeaderBytes - 20;
  EXPECT_THROW(bed.ip[0]->send(1, 200, net::HeaderBlob::of(int{0}, 20), 20,
                               net::Buffer::zeros(room + 1)),
               std::invalid_argument);

  net::Buffer payload = net::Buffer::pattern(room, 3);
  EXPECT_NO_THROW(bed.ip[0]->send(1, 200, net::HeaderBlob::of(int{0}, 20), 20,
                                  payload));
  bed.sim.run();

  ASSERT_EQ(sink.datagrams.size(), 1u);
  EXPECT_TRUE(sink.datagrams[0].content_equals(payload));
  EXPECT_EQ(bed.ip[0]->fragments_sent(), 1u);
}

// --- TCP ---------------------------------------------------------------------------

struct TcpPair {
  TcpBed bed;
  tcpip::TcpSocket* client = nullptr;
  tcpip::TcpSocket* server = nullptr;
  bool connected = false;

  explicit TcpPair(tcpip::Config cfg = {}) : bed({}, cfg) {
    bed.tcp[1]->listen(5000);
    establish(*this);
    bed.sim.run();
    EXPECT_TRUE(connected);
  }

  static sim::Task establish(TcpPair& p) {
    auto& sock = p.bed.tcp[0]->create_socket();
    p.client = &sock;
    const bool ok = co_await sock.connect(1, 5000);
    EXPECT_TRUE(ok);
    p.server = co_await p.bed.tcp[1]->accept(5000);
    p.connected = ok && p.server != nullptr;
  }
};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  TcpPair p;
  EXPECT_TRUE(p.client->established());
  EXPECT_TRUE(p.server->established());
  EXPECT_EQ(p.server->remote_node(), 0);
}

TEST(Tcp, StreamIntegrityAcrossManyWrites) {
  TcpPair p;
  struct Run {
    static sim::Task tx(tcpip::TcpSocket& s) {
      for (int i = 0; i < 10; ++i) {
        (void)co_await s.send(net::Buffer::pattern(3000 + 17 * i, i));
      }
      s.close();
    }
    static sim::Task rx(tcpip::TcpSocket& s, int* ok) {
      for (int i = 0; i < 10; ++i) {
        net::Buffer b = co_await s.recv_exact(3000 + 17 * i);
        if (b.content_equals(net::Buffer::pattern(3000 + 17 * i, i))) ++*ok;
      }
    }
  };
  int ok = 0;
  Run::tx(*p.client);
  Run::rx(*p.server, &ok);
  p.bed.sim.run();
  EXPECT_EQ(ok, 10);
}

// A message larger than the send buffer is copied into socket memory in
// several slices, and acks re-enter the send path while an earlier, longer
// copy is still running, so copies finish out of order. The stream must
// still carry the bytes in offset order, both ways, at either MTU.
TEST(Tcp, PatternedMegabyteEchoKeepsByteOrder) {
  constexpr std::int64_t kSize = 1 << 20;
  for (const std::int64_t mtu : {std::int64_t{9000}, std::int64_t{1500}}) {
    TcpPair p;
    p.bed.cluster.set_mtu_all(mtu);
    struct Run {
      static sim::Task echo(tcpip::TcpSocket& s, bool* ok) {
        net::Buffer b = co_await s.recv_exact(kSize);
        *ok = b.content_equals(net::Buffer::pattern(kSize, 5));
        (void)co_await s.send(std::move(b));
      }
      static sim::Task drive(tcpip::TcpSocket& s, bool* ok) {
        (void)co_await s.send(net::Buffer::pattern(kSize, 5));
        net::Buffer b = co_await s.recv_exact(kSize);
        *ok = b.content_equals(net::Buffer::pattern(kSize, 5));
      }
    };
    bool there = false;
    bool back = false;
    Run::echo(*p.server, &there);
    Run::drive(*p.client, &back);
    p.bed.sim.run();
    EXPECT_TRUE(there) << "client to server, MTU " << mtu;
    EXPECT_TRUE(back) << "server to client, MTU " << mtu;
  }
}

TEST(Tcp, EofAfterFin) {
  TcpPair p;
  struct Run {
    static sim::Task tx(tcpip::TcpSocket& s) {
      (void)co_await s.send(net::Buffer::zeros(100));
      s.close();
    }
    static sim::Task rx(tcpip::TcpSocket& s, bool* got_eof) {
      (void)co_await s.recv_exact(100);
      net::Buffer eof = co_await s.recv(1000);
      *got_eof = eof.size() == 0;
    }
  };
  bool got_eof = false;
  Run::tx(*p.client);
  Run::rx(*p.server, &got_eof);
  p.bed.sim.run();
  EXPECT_TRUE(got_eof);
  EXPECT_TRUE(p.server->peer_closed());
}

TEST(Tcp, FastRetransmitOnDupAcks) {
  TcpPair p;
  // Drop one data frame mid-stream; later segments generate dup acks.
  p.bed.cluster.link(0).faults(0).drop_frame_index(8);
  struct Run {
    static sim::Task tx(tcpip::TcpSocket& s) {
      (void)co_await s.send(net::Buffer::zeros(300000));
    }
    static sim::Task rx(tcpip::TcpSocket& s, bool* done) {
      (void)co_await s.recv_exact(300000);
      *done = true;
    }
  };
  bool done = false;
  Run::tx(*p.client);
  Run::rx(*p.server, &done);
  p.bed.sim.run_until(sim::seconds(2));
  EXPECT_TRUE(done);
  EXPECT_GE(p.client->fast_retransmits() + p.client->retransmits(), 1u);
}

TEST(Tcp, SurvivesHeavyRandomLoss) {
  TcpPair p;
  p.bed.cluster.link(0).faults(0).set_seed(5);
  p.bed.cluster.link(0).faults(0).set_drop_probability(0.05);
  p.bed.cluster.link(1).faults(0).set_seed(6);
  p.bed.cluster.link(1).faults(0).set_drop_probability(0.05);
  struct Run {
    static sim::Task tx(tcpip::TcpSocket& s) {
      (void)co_await s.send(net::Buffer::pattern(150000, 77));
    }
    static sim::Task rx(tcpip::TcpSocket& s, bool* ok) {
      net::Buffer b = co_await s.recv_exact(150000);
      *ok = b.content_equals(net::Buffer::pattern(150000, 77));
    }
  };
  bool ok = false;
  Run::tx(*p.client);
  Run::rx(*p.server, &ok);
  p.bed.sim.run_until(sim::seconds(30));
  EXPECT_TRUE(ok);
}

TEST(Tcp, ZeroWindowStallsAndRecovers) {
  tcpip::Config cfg;
  cfg.rcvbuf = 32 * 1024;  // small receive buffer
  TcpPair p(cfg);
  struct Run {
    static sim::Task tx(tcpip::TcpSocket& s, bool* sent) {
      (void)co_await s.send(net::Buffer::zeros(200000));
      *sent = true;
    }
    static sim::Task rx(sim::Simulator& sim, tcpip::TcpSocket& s,
                        bool* got) {
      // Let the window fill and close before draining.
      co_await sim::Delay{sim, sim::milliseconds(20)};
      (void)co_await s.recv_exact(200000);
      *got = true;
    }
  };
  bool sent = false;
  bool got = false;
  Run::tx(*p.client, &sent);
  Run::rx(p.bed.sim, *p.server, &got);
  p.bed.sim.run_until(sim::seconds(5));
  EXPECT_TRUE(sent);
  EXPECT_TRUE(got);
}

TEST(Tcp, NagleHoldsSubMssTail) {
  // With Nagle on, a sub-MSS chunk sent while data is in flight waits; with
  // TCP_NODELAY it goes out immediately. Compare segment counts.
  auto run = [](bool nodelay) {
    tcpip::Config cfg;
    cfg.nodelay = nodelay;
    TcpPair p(cfg);
    struct Run {
      static sim::Task tx(tcpip::TcpSocket& s) {
        (void)co_await s.send(net::Buffer::zeros(9000));
        (void)co_await s.send(net::Buffer::zeros(400));
        (void)co_await s.send(net::Buffer::zeros(400));
      }
      static sim::Task rx(tcpip::TcpSocket& s) {
        (void)co_await s.recv_exact(9800);
      }
    };
    Run::tx(*p.client);
    Run::rx(*p.server);
    p.bed.sim.run_until(sim::milliseconds(100));
    return p.bed.tcp[0]->segments_sent();
  };
  // Nagle coalesces the two 400 B writes into one tail segment.
  EXPECT_LT(run(false), run(true));
}

TEST(Tcp, CwndGrowsFromSlowStart) {
  TcpPair p;
  const auto initial = p.client->cwnd();
  struct Run {
    static sim::Task tx(tcpip::TcpSocket& s) {
      (void)co_await s.send(net::Buffer::zeros(500000));
    }
    static sim::Task rx(tcpip::TcpSocket& s) {
      (void)co_await s.recv_exact(500000);
    }
  };
  Run::tx(*p.client);
  Run::rx(*p.server);
  p.bed.sim.run();
  EXPECT_GT(p.client->cwnd(), 4 * initial);
}

TEST(Tcp, ConnectToNonListeningPortTimesOutWithoutCrash) {
  TcpBed bed;
  bool completed = false;
  struct Run {
    static sim::Task go(tcpip::TcpStack& t, bool* completed) {
      auto& s = t.create_socket();
      (void)co_await s.connect(1, 9999);  // nobody listens: SYN retries
      *completed = true;
    }
  };
  Run::go(*bed.tcp[0], &completed);
  bed.sim.run_until(sim::seconds(2));
  EXPECT_FALSE(completed);  // never established (no RST modelling)
}

}  // namespace
}  // namespace clicsim
