// Integration tests for CLIC_MODULE: send modes, segmentation, integrity,
// intra-node messaging, remote write, broadcast, kernel functions,
// protection, port lifecycle, loss recovery, a give-up in mid-message and
// channel bonding.
#include <gtest/gtest.h>

#include <optional>

#include "apps/testbed.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

using apps::ClicBed;

sim::Task send_one(clic::ClicModule& m, int port, int dst, net::Buffer data,
                   clic::SendMode mode, bool* done) {
  auto st = co_await m.send(port, dst, port, std::move(data), mode);
  EXPECT_TRUE(st.ok);
  if (done) *done = true;
}

sim::Task recv_one(clic::ClicModule& m, int port, clic::Message* out) {
  *out = co_await m.recv(port);
}

// --- Send/recv basics -------------------------------------------------------------

TEST(ClicModule, ZeroByteMessage) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  bool sent = false;
  clic::Message got;
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(0),
           clic::SendMode::kSync, &sent);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got.data.size(), 0);
  EXPECT_EQ(got.src_node, 0);
}

TEST(ClicModule, SegmentsToMtuAndReassembles) {
  ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  // 10 KB over MTU 1500: ceil(10240 / 1488) = 7 packets.
  net::Buffer payload = net::Buffer::pattern(10240, 17);
  bool sent = false;
  clic::Message got;
  send_one(bed.module(0), 5, 1, payload, clic::SendMode::kSync, &sent);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(got.data.content_equals(payload));
  auto* ch = bed.module(1).channel_to(0);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->rx_next(), 7u);
}

TEST(ClicModule, MessageArrivingBeforeRecvWaitsInSystemMemory) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  send_one(bed.module(0), 5, 1, net::Buffer::pattern(2000, 3),
           clic::SendMode::kSync, nullptr);
  bed.sim.run();
  EXPECT_TRUE(bed.module(1).poll(5));

  clic::Message got;
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();
  EXPECT_TRUE(got.data.content_equals(net::Buffer::pattern(2000, 3)));
  EXPECT_FALSE(bed.module(1).poll(5));
}

TEST(ClicModule, ConfirmedSendCompletesAfterPeerAck) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  sim::SimTime sync_done = 0;
  sim::SimTime confirmed_done = 0;

  struct Run {
    static sim::Task go(ClicBed& bed, clic::SendMode mode,
                        sim::SimTime* out) {
      (void)co_await bed.module(0).send(5, 1, 5, net::Buffer::zeros(4000),
                                        mode);
      *out = bed.sim.now();
    }
  };
  Run::go(bed, clic::SendMode::kSync, &sync_done);
  bed.sim.run();
  const auto t_sync = sync_done;

  ClicBed bed2;
  bed2.module(0).bind_port(5);
  bed2.module(1).bind_port(5);
  Run::go(bed2, clic::SendMode::kConfirmed, &confirmed_done);
  bed2.sim.run();
  // Confirmation needs the round trip; plain sync only the local DMA.
  EXPECT_GT(confirmed_done, t_sync + sim::microseconds(10));
}

// The run ends on the last model event. Superseded retransmit and
// delayed-ack timers are cancelled and do not hold the clock open.
TEST(ClicModule, ConfirmedSendRunEndsOnItsLastEvent) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  bool sent = false;
  clic::Message got;
  send_one(bed.module(0), 5, 1, net::Buffer::pattern(1000, 9),
           clic::SendMode::kConfirmed, &sent);
  recv_one(bed.module(1), 5, &got);
  bed.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got.data.size(), 1000);
  EXPECT_LT(bed.now(), sim::milliseconds(1.0));
}

TEST(ClicModule, AsyncSendReturnsBeforeDelivery) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  sim::SimTime async_done = 0;
  struct Run {
    static sim::Task go(ClicBed& bed, sim::SimTime* out) {
      (void)co_await bed.module(0).send(5, 1, 5,
                                        net::Buffer::zeros(1 << 20),
                                        clic::SendMode::kAsync);
      *out = bed.sim.now();
    }
  };
  Run::go(bed, &async_done);
  bed.sim.run();
  // 1 MB takes ~14 ms to move; the async call returns in microseconds...
  EXPECT_LT(async_done, sim::milliseconds(2));
  // ...yet the data still arrives.
  EXPECT_EQ(bed.module(1).messages_received(), 1u);
}

TEST(ClicModule, ManyMessagesKeepOrderPerPortPair) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  struct Run {
    static sim::Task tx(ClicBed& bed) {
      for (int i = 0; i < 20; ++i) {
        (void)co_await bed.module(0).send(
            5, 1, 5, net::Buffer::pattern(100 + i, i));
      }
    }
    static sim::Task rx(ClicBed& bed, int* ok) {
      for (int i = 0; i < 20; ++i) {
        clic::Message m = co_await bed.module(1).recv(5);
        if (m.data.size() == 100 + i &&
            m.data.content_equals(net::Buffer::pattern(100 + i, i))) {
          ++*ok;
        }
      }
    }
  };
  int ok = 0;
  Run::tx(bed);
  Run::rx(bed, &ok);
  bed.sim.run();
  EXPECT_EQ(ok, 20);
}

// --- Intra-node --------------------------------------------------------------------

TEST(ClicModule, IntraNodeMessagingWorksWithoutNic) {
  ClicBed bed;
  bed.module(0).bind_port(3);
  bed.module(0).bind_port(4);
  net::Buffer payload = net::Buffer::pattern(5000, 9);
  bool sent = false;
  clic::Message got;

  struct Run {
    static sim::Task go(clic::ClicModule& m, net::Buffer data, bool* sent) {
      auto st = co_await m.send(3, /*dst_node=*/0, /*dst_port=*/4,
                                std::move(data));
      EXPECT_TRUE(st.ok);
      *sent = true;
    }
  };
  Run::go(bed.module(0), payload, &sent);
  recv_one(bed.module(0), 4, &got);
  const auto frames_before = bed.cluster.link(0).frames_sent(0);
  bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(got.data.content_equals(payload));
  EXPECT_EQ(bed.module(0).intra_node_messages(), 1u);
  EXPECT_EQ(bed.cluster.link(0).frames_sent(0), frames_before);  // no wire
}

// --- Remote write ------------------------------------------------------------------

TEST(ClicModule, RemoteWriteLandsWithoutRecv) {
  ClicBed bed;
  bed.module(1).register_region(7, 1 << 20);
  net::Buffer data = net::Buffer::pattern(40000, 21);
  bool done = false;
  struct Run {
    static sim::Task go(clic::ClicModule& m, net::Buffer d, bool* done) {
      auto st = co_await m.remote_write(1, 7, std::move(d));
      EXPECT_TRUE(st.ok);
      *done = true;
    }
  };
  Run::go(bed.module(0), data, &done);
  bed.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.module(1).region_bytes(7), 40000);
  EXPECT_TRUE(bed.module(1).region_contents(7).content_equals(data));
}

TEST(ClicModule, RemoteWriteRespectsRegionCapacity) {
  ClicBed bed;
  bed.module(1).register_region(7, 1000);
  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.remote_write(1, 7, net::Buffer::zeros(800),
                                    clic::SendMode::kSync);
      (void)co_await m.remote_write(1, 7, net::Buffer::zeros(800),
                                    clic::SendMode::kSync);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).region_bytes(7), 800);  // second write rejected
}

TEST(ClicModule, RemoteWriteToUnregisteredRegionIsDropped) {
  ClicBed bed;
  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.remote_write(1, 99, net::Buffer::zeros(100),
                                    clic::SendMode::kSync);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).region_bytes(99), 0);
}

// --- Kernel functions ----------------------------------------------------------------

TEST(ClicModule, KernelFunctionPacketsInvokeHandlers) {
  ClicBed bed;
  int invoked = 0;
  std::int64_t got_bytes = 0;
  bed.module(1).register_kernel_fn(12, [&](clic::Message m) {
    ++invoked;
    got_bytes = m.data.size();
  });
  send_one(bed.module(0), 12, 1, net::Buffer::zeros(500),
           clic::SendMode::kSync, nullptr);
  bed.sim.run();
  EXPECT_EQ(invoked, 0);  // kUser type does not hit kernel fns...

  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.send(0, 1, 12, net::Buffer::zeros(500),
                            clic::SendMode::kSync,
                            clic::PacketType::kKernelFn);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(invoked, 1);
  EXPECT_EQ(got_bytes, 500);
}

// --- Broadcast ------------------------------------------------------------------------

TEST(ClicModule, BroadcastReachesAllOtherNodes) {
  os::ClusterConfig cc;
  cc.nodes = 5;
  ClicBed bed(cc);
  for (int i = 0; i < 5; ++i) bed.module(i).bind_port(9);
  net::Buffer payload = net::Buffer::pattern(12000, 30);

  struct Run {
    static sim::Task tx(clic::ClicModule& m, net::Buffer d) {
      auto st = co_await m.broadcast(9, 9, std::move(d));
      EXPECT_TRUE(st.ok);
    }
    static sim::Task rx(clic::ClicModule& m, net::Buffer expect, int* ok) {
      clic::Message got = co_await m.recv(9);
      if (got.data.content_equals(expect) &&
          got.type == clic::PacketType::kBroadcast) {
        ++*ok;
      }
    }
  };
  int ok = 0;
  Run::tx(bed.module(2), payload);
  for (int i = 0; i < 5; ++i) {
    if (i != 2) Run::rx(bed.module(i), payload, &ok);
  }
  bed.sim.run();
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(bed.module(2).messages_received(), 0u);  // not to itself
}

// --- Protection ------------------------------------------------------------------------

TEST(ClicModule, UnboundPortDropsForProtection) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(100),
           clic::SendMode::kSync, nullptr);
  bed.sim.run();
  EXPECT_EQ(bed.module(1).messages_received(), 1u);  // reassembled...
  EXPECT_FALSE(bed.module(1).poll(5));  // would throw if bound check missing
}

TEST(ClicModule, RecvOnUnboundPortIsAnError) {
  ClicBed bed;
  EXPECT_THROW(
      {
        auto f = bed.module(0).recv(77);
        bed.sim.run();
        (void)f;
      },
      std::logic_error);
}

// --- Port lifecycle ------------------------------------------------------------------

TEST(PortLifecycle, UnbindDropsQueuedAndFutureTraffic) {
  apps::ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);

  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(5, 1, 5, net::Buffer::zeros(1000));
    }
  };
  Run::tx(bed.module(0));
  bed.sim.run();
  EXPECT_TRUE(bed.module(1).poll(5));

  bed.module(1).unbind_port(5);
  EXPECT_FALSE(bed.module(1).poll(5));

  // Traffic after the unbind is protection-dropped, not queued.
  Run::tx(bed.module(0));
  bed.sim.run();
  EXPECT_FALSE(bed.module(1).poll(5));
}

TEST(PortLifecycle, UnbindWakesBlockedReceiverWithClosedMarker) {
  apps::ClicBed bed;
  bed.module(1).bind_port(5);
  int closed_src = 0;
  struct Run {
    static sim::Task rx(clic::ClicModule& m, int* src) {
      clic::Message got = co_await m.recv(5);
      *src = got.src_node;
    }
  };
  Run::rx(bed.module(1), &closed_src);
  bed.sim.after(sim::microseconds(10),
                [&] { bed.module(1).unbind_port(5); });
  bed.sim.run();
  EXPECT_EQ(closed_src, -1);
}

TEST(PortLifecycle, RebindAfterUnbindWorks) {
  apps::ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  bed.module(1).unbind_port(5);
  bed.module(1).bind_port(5);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(5, 1, 5, net::Buffer::pattern(500, 1));
    }
    static sim::Task rx(clic::ClicModule& m, bool* ok) {
      clic::Message got = co_await m.recv(5);
      *ok = got.data.content_equals(net::Buffer::pattern(500, 1));
    }
  };
  bool ok = false;
  Run::tx(bed.module(0));
  Run::rx(bed.module(1), &ok);
  bed.sim.run();
  EXPECT_TRUE(ok);
}

// --- Loss recovery ---------------------------------------------------------------------

TEST(ClicModule, RecoversFromFrameLoss) {
  ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  auto& faults = bed.cluster.link(0).faults(0);
  faults.drop_frame_index(2);
  faults.drop_frame_index(5);

  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  net::Buffer payload = net::Buffer::pattern(20000, 44);
  clic::Message got;
  send_one(bed.module(0), 5, 1, payload, clic::SendMode::kConfirmed,
           nullptr);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run_until(sim::seconds(1));

  EXPECT_TRUE(got.data.content_equals(payload));
  auto* ch = bed.module(0).channel_to(1);
  ASSERT_NE(ch, nullptr);
  EXPECT_GE(ch->retransmits(), 1u);
}

// A channel give-up while a message's packets are still entering the
// channel: the rest of the message must not reach the peer, which would
// append it to the reassembly the give-up left open. The send fails, and
// nothing torn is delivered, whatever the send mode.
class ClicGiveUpMidMessage : public ::testing::TestWithParam<clic::SendMode> {
};

sim::Task send_status(clic::ClicModule& m, net::Buffer data,
                      clic::SendMode mode,
                      std::optional<clic::SendStatus>* out) {
  *out = co_await m.send(5, 1, 5, std::move(data), mode);
}

TEST_P(ClicGiveUpMidMessage, SendFailsAndNothingTornIsDelivered) {
  clic::Config cfg;
  cfg.rto = sim::microseconds(100.0);
  cfg.max_retries = 1;
  ClicBed bed({}, cfg);
  bed.cluster.set_mtu_all(1500);
  // Node 0's frames 3-199 vanish, so the channel gives up on the message's
  // fourth packet while later packets are still being submitted.
  for (std::uint64_t i = 3; i < 200; ++i) {
    bed.cluster.link(0).faults(0).drop_frame_index(i);
  }
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  const net::Buffer payload = net::Buffer::pattern(4 << 20, 61);
  std::optional<clic::SendStatus> status;
  send_status(bed.module(0), payload, GetParam(), &status);
  bed.sim.run();

  ASSERT_GE(bed.module(0).channel_to(1)->gave_up(), 1u);
  ASSERT_TRUE(status.has_value()) << "the send never resolved";
  EXPECT_FALSE(status->ok);
  EXPECT_EQ(status->error, clic::SendError::kTimedOut);
  while (bed.module(1).poll(5)) {
    clic::Message got;
    recv_one(bed.module(1), 5, &got);
    bed.sim.run();
    EXPECT_TRUE(got.data.content_equals(payload))
        << "delivered a torn " << got.data.size() << " B message";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ClicGiveUpMidMessage,
    ::testing::Values(clic::SendMode::kSync, clic::SendMode::kAsync),
    [](const auto& info) -> std::string {
      return info.param == clic::SendMode::kSync ? "Sync" : "Async";
    });

// --- Channel bonding ----------------------------------------------------------------------

TEST(ClicModule, BondingStripesAndResequences) {
  os::ClusterConfig cc;
  cc.nics_per_node = 2;
  clic::Config cfg;
  cfg.channel_bonding = true;
  ClicBed bed(cc, cfg);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);

  net::Buffer payload = net::Buffer::pattern(200000, 55);
  clic::Message got;
  send_one(bed.module(0), 5, 1, payload, clic::SendMode::kSync, nullptr);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();

  EXPECT_TRUE(got.data.content_equals(payload));
  // Both of the sender's links carried traffic.
  EXPECT_GT(bed.cluster.link(0, 0).frames_sent(0), 5u);
  EXPECT_GT(bed.cluster.link(0, 1).frames_sent(0), 5u);
}

// --- Jumbo interoperability ------------------------------------------------------------------

TEST(ClicModule, JumboSenderStandardReceiverLosesFrames) {
  // The paper's interoperability caveat: both ends must enable jumbo.
  ClicBed bed;
  bed.cluster.node(0).nic(0).set_mtu(9000);
  bed.cluster.node(1).nic(0).set_mtu(1500);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(8000),
           clic::SendMode::kSync, nullptr);
  bed.sim.run_until(sim::milliseconds(20));
  EXPECT_GT(bed.cluster.node(1).nic(0).rx_oversize_drops(), 0u);
  EXPECT_EQ(bed.module(1).messages_received(), 0u);
}

}  // namespace
}  // namespace clicsim
