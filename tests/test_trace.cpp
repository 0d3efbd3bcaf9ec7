// Packet capture and decoding: taps interpose transparently, records are
// time-ordered, and the decoder names every protocol correctly.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/testbed.hpp"
#include "apps/trace.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(Trace, TapRecordsWithoutDisturbingDelivery) {
  apps::ClicBed bed;
  apps::PacketTrace trace;
  trace.tap_node_rx(bed.cluster, 1);

  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 1, 1, net::Buffer::zeros(3000));
    }
    static sim::Task rx(clic::ClicModule& m, bool* got) {
      (void)co_await m.recv(1);
      *got = true;
    }
  };
  bool got = false;
  Run::tx(bed.module(0));
  Run::rx(bed.module(1), &got);
  bed.sim.run();

  EXPECT_TRUE(got);  // the tap forwarded everything
  EXPECT_GE(trace.frames_captured(), 1u);
}

TEST(Trace, DecodesClicHeaders) {
  apps::ClicBed bed;
  apps::PacketTrace trace;
  trace.tap_all(bed.cluster);
  bed.module(0).bind_port(7);
  bed.module(1).bind_port(7);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(7, 1, 7, net::Buffer::zeros(1000),
                            clic::SendMode::kConfirmed);
    }
    static sim::Task rx(clic::ClicModule& m) { (void)co_await m.recv(7); }
  };
  Run::tx(bed.module(0));
  Run::rx(bed.module(1));
  bed.sim.run();

  std::ostringstream os;
  trace.dump(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("CLIC user"), std::string::npos);
  EXPECT_NE(s.find("flags FLC"), std::string::npos);  // first|last|confirm
  EXPECT_NE(s.find("CLIC internal"), std::string::npos);  // the pure ack
}

TEST(Trace, DecodesTcp) {
  apps::TcpBed bed;
  apps::PacketTrace trace;
  trace.tap_all(bed.cluster);
  bed.tcp[1]->listen(5000);
  struct Run {
    static sim::Task tcp_tx(tcpip::TcpStack& t) {
      auto& s = t.create_socket();
      (void)co_await s.connect(1, 5000);
      (void)co_await s.send(net::Buffer::zeros(500));
    }
    static sim::Task tcp_rx(tcpip::TcpStack& t) {
      auto* s = co_await t.accept(5000);
      (void)co_await s->recv_exact(500);
    }
  };
  Run::tcp_tx(*bed.tcp[0]);
  Run::tcp_rx(*bed.tcp[1]);
  bed.sim.run();

  std::ostringstream os;
  trace.dump(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("IP TCP"), std::string::npos);
  EXPECT_NE(s.find("flags S"), std::string::npos);  // the SYN
}

TEST(Trace, MarksCorruptedFrames) {
  apps::ClicBed bed;
  apps::PacketTrace trace;
  trace.tap_node_rx(bed.cluster, 1);
  bed.cluster.link(0).faults(0).set_corrupt_probability(1.0);
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 1, 1, net::Buffer::zeros(100),
                            clic::SendMode::kAsync);
    }
  };
  Run::tx(bed.module(0));
  bed.sim.run_until(sim::milliseconds(1));

  std::ostringstream os;
  trace.dump(os);
  EXPECT_NE(os.str().find("BAD-FCS"), std::string::npos);
}

TEST(Trace, RecordLimitCapsMemory) {
  sim::Simulator sim;
  net::Link link(sim, net::LinkParams{}, "l");
  net::Tap tap(sim, "t");
  tap.insert(link, 1);
  tap.set_limit(3);
  net::Frame f;
  f.payload = net::Buffer::zeros(100);
  for (int i = 0; i < 10; ++i) link.send(0, f);
  sim.run();
  EXPECT_EQ(tap.records().size(), 3u);
  EXPECT_EQ(tap.frames_seen(), 10u);
}

}  // namespace
}  // namespace clicsim
