// Unit tests for the CLIC reliable channel: windowing, cumulative acks,
// retransmission, reordering, duplicates, and a seeded reference-model
// drive of two channels over a lossy wire in both clock modes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "clic/channel.hpp"
#include "hw/cpu.hpp"
#include "os/kernel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace clicsim::clic {
namespace {

// A ChannelOps that records emissions instead of touching hardware, so the
// channel state machine is tested in isolation.
struct FakeOps : ChannelOps {
  sim::Simulator sim;
  hw::HostParams host;
  hw::Cpu cpu{sim, host, "cpu"};
  os::Kernel kern{sim, cpu};

  std::vector<Packet> emitted;
  std::vector<ClicHeader> acks;
  std::vector<Packet> delivered;

  void emit_data(int, Packet& p) override { emitted.push_back(p); }
  void emit_ack(int, const ClicHeader& h) override { acks.push_back(h); }
  void deliver(int, Packet p) override { delivered.push_back(std::move(p)); }
  os::Kernel& kernel() override { return kern; }
};

Packet data_packet(std::uint8_t flags = flags::kFirstFragment |
                                        flags::kLastFragment) {
  Packet p;
  p.header.type = PacketType::kUser;
  p.header.flags = flags;
  p.payload = net::Buffer::zeros(100);
  return p;
}

TEST(Channel, AssignsConsecutiveSequenceNumbers) {
  FakeOps ops;
  Config cfg;
  Channel ch(cfg, ops, 1);
  for (int i = 0; i < 5; ++i) ch.send(data_packet());
  ASSERT_EQ(ops.emitted.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ops.emitted[i].header.seq, i);
  }
}

TEST(Channel, WindowBlocksExcessAndAcksRelease) {
  FakeOps ops;
  Config cfg;
  cfg.window_packets = 4;
  Channel ch(cfg, ops, 1);
  for (int i = 0; i < 10; ++i) ch.send(data_packet());
  EXPECT_EQ(ops.emitted.size(), 4u);
  EXPECT_EQ(ch.pending(), 6u);

  // Cumulative ack for the first 3: window slides, 3 more go out.
  ClicHeader ack;
  ack.flags = flags::kPureAck;
  ack.ack = 3;
  ch.packet_in(ack, {}, net::Buffer::zeros(0));
  EXPECT_EQ(ops.emitted.size(), 7u);
  EXPECT_EQ(ch.in_flight(), 4);
}

TEST(Channel, OnAckedFiresOnCumulativeAck) {
  FakeOps ops;
  Config cfg;
  Channel ch(cfg, ops, 1);
  int acked = 0;
  ch.send(data_packet(), [&](bool ok) { acked += ok ? 1 : 0; });
  ch.send(data_packet(), [&](bool ok) { acked += ok ? 1 : 0; });
  ch.send(data_packet(), [&](bool ok) { acked += ok ? 1 : 0; });
  ClicHeader ack;
  ack.flags = flags::kPureAck;
  ack.ack = 2;  // acks seq 0 and 1
  ch.packet_in(ack, {}, net::Buffer::zeros(0));
  EXPECT_EQ(acked, 2);
}

TEST(Channel, InOrderDeliveryAndAckAccounting) {
  FakeOps ops;
  Config cfg;
  cfg.ack_every = 2;
  Channel ch(cfg, ops, 1);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ClicHeader h;
    h.seq = i;
    h.flags = flags::kFirstFragment | flags::kLastFragment;
    ch.packet_in(h, {}, net::Buffer::zeros(10));
  }
  EXPECT_EQ(ops.delivered.size(), 4u);
  EXPECT_EQ(ch.rx_next(), 4u);
  EXPECT_EQ(ops.acks.size(), 2u);  // one per ack_every=2
  EXPECT_EQ(ops.acks.back().ack, 4u);
}

TEST(Channel, ReordersOutOfOrderArrivals) {
  FakeOps ops;
  Config cfg;
  Channel ch(cfg, ops, 1);
  auto arrive = [&](std::uint32_t seq) {
    ClicHeader h;
    h.seq = seq;
    h.flags = flags::kFirstFragment | flags::kLastFragment;
    ch.packet_in(h, {}, net::Buffer::zeros(10));
  };
  arrive(2);
  arrive(1);
  EXPECT_EQ(ops.delivered.size(), 0u);
  EXPECT_EQ(ch.out_of_order(), 2u);
  arrive(0);
  ASSERT_EQ(ops.delivered.size(), 3u);
  EXPECT_EQ(ops.delivered[0].header.seq, 0u);
  EXPECT_EQ(ops.delivered[1].header.seq, 1u);
  EXPECT_EQ(ops.delivered[2].header.seq, 2u);
}

TEST(Channel, DuplicateTriggersImmediateReAck) {
  FakeOps ops;
  Config cfg;
  cfg.ack_every = 100;  // ensure the re-ack is the dup path, not the count
  Channel ch(cfg, ops, 1);
  ClicHeader h;
  h.seq = 0;
  h.flags = flags::kFirstFragment | flags::kLastFragment;
  ch.packet_in(h, {}, net::Buffer::zeros(10));
  const auto acks_before = ops.acks.size();
  ch.packet_in(h, {}, net::Buffer::zeros(10));  // duplicate
  EXPECT_EQ(ch.duplicates(), 1u);
  EXPECT_EQ(ops.acks.size(), acks_before + 1);
  EXPECT_EQ(ops.delivered.size(), 1u);
}

TEST(Channel, RetransmitsOldestOnTimeout) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  ch.send(data_packet());
  EXPECT_EQ(ops.emitted.size(), 2u);
  ops.sim.run_until(sim::milliseconds(1.5));
  EXPECT_EQ(ch.retransmits(), 1u);
  ASSERT_EQ(ops.emitted.size(), 3u);
  EXPECT_EQ(ops.emitted[2].header.seq, 0u);  // oldest unacked
}

TEST(Channel, AckCancelsRetransmitTimer) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  ClicHeader ack;
  ack.flags = flags::kPureAck;
  ack.ack = 1;
  ch.packet_in(ack, {}, net::Buffer::zeros(0));
  ops.sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(ch.retransmits(), 0u);
  EXPECT_EQ(ch.in_flight(), 0);
}

TEST(Channel, DelayedAckTimerFiresWithoutMoreTraffic) {
  FakeOps ops;
  Config cfg;
  cfg.ack_every = 8;
  cfg.ack_delay = sim::microseconds(50);
  Channel ch(cfg, ops, 1);
  ClicHeader h;
  h.seq = 0;
  h.flags = flags::kFirstFragment | flags::kLastFragment;
  ch.packet_in(h, {}, net::Buffer::zeros(10));
  EXPECT_EQ(ops.acks.size(), 0u);
  ops.sim.run_until(sim::microseconds(100));
  ASSERT_EQ(ops.acks.size(), 1u);
  EXPECT_EQ(ops.acks[0].ack, 1u);
}

TEST(Channel, AckRequestedForcesImmediatePureAck) {
  FakeOps ops;
  Config cfg;
  cfg.ack_every = 100;
  cfg.ack_delay = sim::seconds(1);
  Channel ch(cfg, ops, 1);
  ClicHeader h;
  h.seq = 0;
  h.flags = flags::kFirstFragment | flags::kLastFragment |
            flags::kAckRequested;
  ch.packet_in(h, {}, net::Buffer::zeros(10));
  EXPECT_EQ(ops.acks.size(), 1u);
}

TEST(Channel, PiggybackAckClearsOwedState) {
  FakeOps ops;
  Config cfg;
  cfg.ack_every = 2;
  Channel ch(cfg, ops, 1);
  ClicHeader h;
  h.seq = 0;
  h.flags = flags::kFirstFragment | flags::kLastFragment;
  ch.packet_in(h, {}, net::Buffer::zeros(10));  // one ack owed
  // Outbound data picks up the ack.
  ch.send(data_packet());
  ASSERT_EQ(ops.emitted.size(), 1u);
  EXPECT_EQ(ops.emitted[0].header.ack, 1u);
  // The owed counter was cleared: the next inbound packet is #1 again.
  ClicHeader h2 = h;
  h2.seq = 1;
  ch.packet_in(h2, {}, net::Buffer::zeros(10));
  EXPECT_EQ(ops.acks.size(), 0u);  // threshold (2) not re-reached
}

TEST(Channel, BackoffGrowsGeometricallyAndCaps) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  cfg.rto_backoff = 2.0;
  cfg.rto_max = sim::milliseconds(8.0);
  cfg.rto_jitter = 0.0;  // exact expiry times
  cfg.max_retries = 100;
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  // Expiries at 1, 3, 7, 15, 23, 31, 39, 47 ms: geometric up to the cap,
  // then linear at the cap — 8 timeouts in 50 ms instead of 50.
  ops.sim.run_until(sim::milliseconds(50.0));
  EXPECT_EQ(ch.timeouts(), 8u);
  EXPECT_EQ(ch.retransmits(), 8u);
  EXPECT_EQ(ch.current_rto(), cfg.rto_max);
}

TEST(Channel, ProgressResetsBackoff) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  cfg.rto_backoff = 2.0;
  cfg.rto_jitter = 0.0;
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  ch.send(data_packet());
  ops.sim.run_until(sim::milliseconds(4.5));  // expiries at 1, 3 ms
  EXPECT_EQ(ch.backoff_level(), 2);
  ClicHeader ack;
  ack.flags = flags::kPureAck;
  ack.ack = 1;  // fresh progress, one packet still outstanding
  ch.packet_in(ack, {}, net::Buffer::zeros(0));
  EXPECT_EQ(ch.backoff_level(), 0);
  EXPECT_EQ(ch.current_rto(), cfg.rto);
}

TEST(Channel, GivesUpAfterRetryBudgetAndFailsOutstandingSends) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  cfg.rto_backoff = 2.0;
  cfg.rto_max = sim::milliseconds(4.0);
  cfg.rto_jitter = 0.0;
  cfg.max_retries = 3;
  cfg.window_packets = 1;  // second send is window-blocked in pending_
  Channel ch(cfg, ops, 1);
  std::vector<bool> results;
  ch.send(data_packet(), [&](bool ok) { results.push_back(ok); });
  ch.send(data_packet(), [&](bool ok) { results.push_back(ok); });
  ops.sim.run_until(sim::seconds(1.0));
  // Retransmits are budgeted, not endless.
  EXPECT_EQ(ch.retransmits(), 3u);
  EXPECT_EQ(ch.timeouts(), 4u);  // 3 retries + the expiry that gave up
  EXPECT_EQ(ch.gave_up(), 1u);
  // Both sends resolved as failed — transmitted and window-blocked alike.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_EQ(ch.in_flight(), 0);
  EXPECT_EQ(ch.pending(), 0u);
  // No orphan timer keeps ticking after the give-up.
  EXPECT_EQ(ops.kern.timer_wheel().size(), 0u);
}

TEST(Channel, FirstSendAfterGiveUpCarriesReset) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  cfg.rto_jitter = 0.0;
  cfg.max_retries = 0;  // give up on the first expiry
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  ops.sim.run_until(sim::milliseconds(10.0));
  EXPECT_EQ(ch.gave_up(), 1u);
  ch.send(data_packet());
  ASSERT_EQ(ops.emitted.size(), 2u);
  EXPECT_NE(ops.emitted[1].header.flags & flags::kReset, 0);
  // Only the first post-give-up packet carries the flag.
  ch.send(data_packet());
  ASSERT_EQ(ops.emitted.size(), 3u);
  EXPECT_EQ(ops.emitted[2].header.flags & flags::kReset, 0);
}

TEST(Channel, ReceiverAdoptsResetForwardOnly) {
  FakeOps ops;
  Config cfg;
  Channel ch(cfg, ops, 1);
  auto arrive = [&](std::uint32_t seq, std::uint8_t extra = 0) {
    ClicHeader h;
    h.seq = seq;
    h.flags = static_cast<std::uint8_t>(flags::kFirstFragment |
                                        flags::kLastFragment | extra);
    ch.packet_in(h, {}, net::Buffer::zeros(10));
  };
  arrive(0);
  EXPECT_EQ(ch.rx_next(), 1u);
  // The sender abandoned [1, 5) during an outage; seq 5 carries the reset.
  arrive(5, flags::kReset);
  EXPECT_EQ(ch.resets_accepted(), 1u);
  EXPECT_EQ(ch.rx_next(), 6u);
  EXPECT_EQ(ops.delivered.size(), 2u);
  // A duplicated/reordered stale reset must not rewind the window.
  arrive(2, flags::kReset);
  EXPECT_EQ(ch.resets_accepted(), 1u);
  EXPECT_EQ(ch.rx_next(), 6u);
  EXPECT_EQ(ch.duplicates(), 1u);
  EXPECT_EQ(ops.delivered.size(), 2u);
}

TEST(Channel, ResetPurgesStaleReorderBuffer) {
  FakeOps ops;
  Config cfg;
  Channel ch(cfg, ops, 1);
  auto arrive = [&](std::uint32_t seq, std::uint8_t extra = 0) {
    ClicHeader h;
    h.seq = seq;
    h.flags = static_cast<std::uint8_t>(flags::kFirstFragment |
                                        flags::kLastFragment | extra);
    ch.packet_in(h, {}, net::Buffer::zeros(10));
  };
  arrive(2);  // buffered out-of-order, then its gap is abandoned
  arrive(7);
  EXPECT_EQ(ops.delivered.size(), 0u);
  arrive(4, flags::kReset);  // sender's new base is 4
  // Seq 2 (below the new base) was purged; 4 delivered; 7 still buffered.
  EXPECT_EQ(ops.delivered.size(), 1u);
  EXPECT_EQ(ops.delivered[0].header.seq, 4u);
  EXPECT_EQ(ch.rx_next(), 5u);
}

TEST(Channel, RetransmissionDoesNotRefireDescriptorCallback) {
  FakeOps ops;
  Config cfg;
  cfg.rto = sim::milliseconds(1.0);
  Channel ch(cfg, ops, 1);
  Packet p = data_packet();
  int descriptor_done = 0;
  p.on_descriptor_done = [&] { ++descriptor_done; };
  ch.send(std::move(p));
  ops.sim.run_until(sim::milliseconds(5));
  EXPECT_GE(ch.retransmits(), 1u);
  // The stored retransmission copy must have a cleared callback.
  for (std::size_t i = 1; i < ops.emitted.size(); ++i) {
    EXPECT_FALSE(static_cast<bool>(ops.emitted[i].on_descriptor_done));
  }
}

// --- Reference model: two channels over a lossy wire -------------------------

// Two channels joined by a wire that drops, duplicates and delays (and so
// reorders) frames from a seeded stream until `kHeal`, with a black-holed
// stretch long enough for both channels to give up, then carries every
// frame after a fixed latency. The reference model is the list of packets
// each side handed to send(): the k-th send of a side gets seq k.
constexpr sim::SimTime kLatency = sim::microseconds(20.0);
constexpr sim::SimTime kOutageStart = sim::milliseconds(10.0);
constexpr sim::SimTime kOutageEnd = sim::milliseconds(18.0);
constexpr sim::SimTime kHeal = sim::milliseconds(30.0);
// By then every retransmission ladder running at the heal has ended, so a
// later send must succeed (rto_max below is 4 ms, its jitter 10%).
constexpr sim::SimTime kSettled = kHeal + sim::milliseconds(10.0);

struct Wire {
  sim::Simulator sim;
  hw::HostParams host;
  hw::Cpu cpu{sim, host, "cpu"};
  os::Kernel kern{sim, cpu};
  sim::Rng rng;
  std::array<Channel*, 2> channels{};

  explicit Wire(std::uint64_t seed) : rng(seed, "clic-channel-wire") {}

  // Carries a frame leaving `from` to the other side.
  void carry(int from, const ClicHeader& header, const net::Buffer& payload) {
    if (sim.now() >= kOutageStart && sim.now() < kOutageEnd) return;
    int copies = 1;
    if (sim.now() < kHeal) {
      if (rng.bernoulli(0.15)) return;
      if (rng.bernoulli(0.05)) copies = 2;
    }
    for (int c = 0; c < copies; ++c) {
      sim::SimTime delay = kLatency;
      if (sim.now() < kHeal && rng.bernoulli(0.2)) {
        delay += rng.uniform_int(1, sim::microseconds(60.0));
      }
      sim.after(delay, [this, to = 1 - from, header, payload] {
        channels[static_cast<std::size_t>(to)]->packet_in(header, {},
                                                           payload);
      });
    }
  }
};

struct WireEnd : ChannelOps {
  Wire* wire;
  int side;
  std::vector<Packet> delivered;

  WireEnd(Wire& w, int s) : wire(&w), side(s) {}
  void emit_data(int, Packet& p) override {
    wire->carry(side, p.header, p.payload);
  }
  void emit_ack(int, const ClicHeader& h) override {
    wire->carry(side, h, net::Buffer::zeros(0));
  }
  void deliver(int, Packet p) override { delivered.push_back(std::move(p)); }
  os::Kernel& kernel() override { return wire->kern; }
};

// What one side handed to send(), and how each send resolved.
struct Sent {
  net::Buffer payload;
  sim::SimTime at = 0;
  std::uint64_t gave_up_before = 0;  // the channel's gave_up() at send
  int acked = 0;
  int failed = 0;
};

class ChannelReferenceModel
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(ChannelReferenceModel, LossyWireThenHealMatchesTheSendList) {
  const auto [adaptive, seed] = GetParam();
  Config cfg;
  cfg.adaptive = adaptive;
  cfg.window_packets = 16;
  cfg.rto = sim::microseconds(300.0);
  cfg.rto_min = sim::microseconds(100.0);
  cfg.rto_max = sim::milliseconds(4.0);
  cfg.rto_jitter = 0.1;
  cfg.max_retries = 3;
  cfg.seed = seed;
  Wire wire(seed);
  std::array<WireEnd, 2> ends{WireEnd(wire, 0), WireEnd(wire, 1)};
  Channel a(cfg, ends[0], 1);
  Channel b(cfg, ends[1], 0);
  wire.channels = {&a, &b};
  std::array<std::vector<Sent>, 2> sent;

  // Bursts from both sides through the lossy phase and after the heal.
  sim::Rng bursts(seed, "clic-channel-bursts");
  for (int burst = 0; burst < 24; ++burst) {
    const int side = burst % 2;
    const sim::SimTime at = burst * sim::milliseconds(2.5) +
                            bursts.uniform_int(0, sim::microseconds(500.0));
    const int count = static_cast<int>(bursts.uniform_int(1, 24));
    wire.sim.at(at, [&, side, count] {
      Channel& ch = side == 0 ? a : b;
      auto& list = sent[static_cast<std::size_t>(side)];
      for (int i = 0; i < count; ++i) {
        const std::size_t k = list.size();
        list.push_back(Sent{net::Buffer::pattern(
                                40 + static_cast<std::int64_t>(k % 7) * 13,
                                seed * 100000 + side * 10000 + k),
                            wire.sim.now(), ch.gave_up()});
        Packet p;
        p.header.flags = flags::kFirstFragment | flags::kLastFragment;
        p.payload = list.back().payload;
        ch.send(std::move(p), [&list, k](bool ok) {
          ++(ok ? list[k].acked : list[k].failed);
        });
      }
    });
  }
  wire.sim.run();

  for (int side = 0; side < 2; ++side) {
    const Channel& tx = side == 0 ? a : b;
    const auto& list = sent[static_cast<std::size_t>(side)];
    const auto& got = ends[static_cast<std::size_t>(1 - side)].delivered;
    SCOPED_TRACE(testing::Message() << "side " << side << ", "
                                    << tx.gave_up() << " give-ups");
    std::vector<bool> delivered(list.size(), false);
    std::int64_t previous = -1;
    for (const Packet& p : got) {
      const std::uint32_t seq = p.header.seq;
      ASSERT_LT(seq, list.size()) << "delivered a seq nobody sent";
      ASSERT_GT(static_cast<std::int64_t>(seq), previous)
          << "out of order or duplicated";
      previous = seq;
      EXPECT_TRUE(p.payload.content_equals(list[seq].payload)) << "seq " << seq;
      delivered[seq] = true;
    }
    for (std::size_t k = 0; k < list.size(); ++k) {
      EXPECT_EQ(list[k].acked + list[k].failed, 1) << "send " << k;
      if (list[k].acked == 1) {
        EXPECT_TRUE(delivered[k]) << "acked send " << k << " never arrived";
      }
      if (list[k].gave_up_before == tx.gave_up()) {
        EXPECT_TRUE(delivered[k]) << "send " << k << " after the last give-up";
      }
      if (list[k].at >= kSettled) {
        EXPECT_EQ(list[k].acked, 1) << "send " << k << " on the healed wire";
      }
    }
    if (tx.gave_up() == 0) {
      EXPECT_EQ(got.size(), list.size());
    }
    EXPECT_GT(tx.retransmits(), 0u) << "the wire never lost a frame";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChannelReferenceModel,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Range<std::uint64_t>(1, 9)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "adaptive" : "fixed") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace clicsim::clic
