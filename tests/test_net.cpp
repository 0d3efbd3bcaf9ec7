// Unit tests for the Ethernet layer: buffers, frames, links (timing and
// fault injection), and the switch.
#include <gtest/gtest.h>

#include "net/buffer.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace clicsim::net {
namespace {

// --- Buffer ------------------------------------------------------------------------

TEST(Buffer, ZerosCarryNoData) {
  auto b = Buffer::zeros(1000);
  EXPECT_EQ(b.size(), 1000);
  EXPECT_FALSE(b.has_data());
  EXPECT_TRUE(b.data().empty());
}

TEST(Buffer, PatternIsDeterministic) {
  auto a = Buffer::pattern(256, 7);
  auto b = Buffer::pattern(256, 7);
  auto c = Buffer::pattern(256, 8);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_NE(a.checksum(), c.checksum());
  EXPECT_TRUE(a.content_equals(b));
  EXPECT_FALSE(a.content_equals(c));
}

// Byte i of a pattern is byte i % 8 (little-endian) of draw i / 8 of
// sim::Rng(seed), whatever the size's remainder mod 8, so a shorter
// pattern is a prefix of a longer one; different seeds differ even in a
// tail-only pattern.
TEST(Buffer, PatternIsLittleEndianRngWords) {
  constexpr std::uint64_t kSeed = 0x5eed;
  const auto whole = Buffer::pattern(4096, kSeed);
  sim::Rng rng(kSeed);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < 4096; ++i) {
    if (i % 8 == 0) word = rng.next();
    ASSERT_EQ(whole.data()[i], static_cast<std::byte>(word >> (8 * (i % 8))))
        << "byte " << i;
  }
  for (const std::int64_t n : {0, 1, 3, 7, 8, 9, 15, 16, 4095}) {
    EXPECT_TRUE(Buffer::pattern(n, kSeed).content_equals(whole.slice(0, n)))
        << "size " << n;
  }
  EXPECT_FALSE(Buffer::pattern(3, 7).content_equals(Buffer::pattern(3, 8)));
}

TEST(Buffer, SliceSharesContent) {
  auto b = Buffer::pattern(100, 1);
  auto s = b.slice(10, 20);
  EXPECT_EQ(s.size(), 20);
  ASSERT_TRUE(s.has_data());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(s.data()[i], b.data()[10 + i]);
  }
}

TEST(Buffer, SliceBoundsChecked) {
  auto b = Buffer::zeros(10);
  EXPECT_THROW((void)b.slice(5, 6), std::out_of_range);
  EXPECT_THROW((void)b.slice(-1, 2), std::out_of_range);
  EXPECT_NO_THROW((void)b.slice(10, 0));
}

TEST(Buffer, SizeOnlyComparesEqualBySize) {
  EXPECT_TRUE(Buffer::zeros(5).content_equals(Buffer::pattern(5, 1)));
  EXPECT_FALSE(Buffer::zeros(5).content_equals(Buffer::zeros(6)));
}

TEST(BufferChain, FlattenPreservesBytes) {
  auto whole = Buffer::pattern(1000, 3);
  BufferChain chain;
  chain.append(whole.slice(0, 400));
  chain.append(whole.slice(400, 350));
  chain.append(whole.slice(750, 250));
  EXPECT_EQ(chain.size(), 1000);
  EXPECT_EQ(chain.fragments(), 3u);
  auto flat = chain.flatten();
  EXPECT_TRUE(flat.content_equals(whole));
}

TEST(BufferChain, MixedContentFallsBackToSizeOnly) {
  BufferChain chain;
  chain.append(Buffer::pattern(10, 1));
  chain.append(Buffer::zeros(10));
  auto flat = chain.flatten();
  EXPECT_EQ(flat.size(), 20);
  EXPECT_FALSE(flat.has_data());
}

// --- MacAddr / Frame ------------------------------------------------------------------

TEST(MacAddr, NodeAddressesAreUnicastAndUnique) {
  auto a = MacAddr::node(1);
  auto b = MacAddr::node(2);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a.is_multicast());
  EXPECT_FALSE(a.is_broadcast());
}

TEST(MacAddr, BroadcastAndMulticastBits) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_multicast());
  EXPECT_TRUE(MacAddr::multicast(5).is_multicast());
  EXPECT_FALSE(MacAddr::multicast(5).is_broadcast());
}

TEST(Frame, MinimumFramePadding) {
  Frame f;
  f.payload = Buffer::zeros(1);
  // 14 header + max(payload,46) + 4 FCS = 64.
  EXPECT_EQ(f.frame_bytes(), 64);
  EXPECT_EQ(f.wire_bytes(), 64 + kEthWireOverhead);
}

TEST(Frame, HeaderBytesCountTowardPayloadArea) {
  struct Dummy {
    int x;
  };
  Frame f;
  f.header = HeaderBlob::of(Dummy{1}, 12);
  f.payload = Buffer::zeros(100);
  EXPECT_EQ(f.payload_bytes(), 112);
  EXPECT_EQ(f.frame_bytes(), 14 + 112 + 4);
}

TEST(HeaderBlob, TypedAccess) {
  struct A {
    int v;
  };
  struct B {
    int v;
  };
  auto blob = HeaderBlob::of(A{42}, 8);
  ASSERT_NE(blob.get<A>(), nullptr);
  EXPECT_EQ(blob.get<A>()->v, 42);
  EXPECT_EQ(blob.get<B>(), nullptr);
  EXPECT_EQ(blob.wire_bytes(), 8);
}

// --- Link ---------------------------------------------------------------------------

struct Catcher : FrameSink {
  std::vector<Frame> frames;
  std::vector<sim::SimTime> times;
  sim::Simulator* sim = nullptr;
  void frame_arrived(Frame f) override {
    frames.push_back(std::move(f));
    times.push_back(sim->now());
  }
};

TEST(Link, SerializationAndPropagationTiming) {
  sim::Simulator sim;
  LinkParams params;
  params.bits_per_s = 1e9;
  params.propagation = 150;
  Link link(sim, params, "l");
  Catcher rx;
  rx.sim = &sim;
  link.attach(1, &rx);

  Frame f;
  f.payload = Buffer::zeros(1000);
  link.send(0, f);
  sim.run();

  ASSERT_EQ(rx.frames.size(), 1u);
  // 14+1000+4+20 = 1038 B at 1 Gb/s = 8304 ns, + 150 propagation.
  EXPECT_EQ(rx.times[0], 8304 + 150);
}

TEST(Link, BackToBackFramesQueueOnTheWire) {
  sim::Simulator sim;
  Link link(sim, LinkParams{}, "l");
  Catcher rx;
  rx.sim = &sim;
  link.attach(1, &rx);
  Frame f;
  f.payload = Buffer::zeros(1000);
  link.send(0, f);
  link.send(0, f);
  sim.run();
  ASSERT_EQ(rx.frames.size(), 2u);
  EXPECT_EQ(rx.times[1] - rx.times[0], 8304);
}

TEST(Link, DeterministicDropByIndex) {
  sim::Simulator sim;
  Link link(sim, LinkParams{}, "l");
  Catcher rx;
  rx.sim = &sim;
  link.attach(1, &rx);
  link.faults(0).drop_frame_index(1);
  Frame f;
  f.payload = Buffer::zeros(100);
  for (int i = 0; i < 3; ++i) link.send(0, f);
  sim.run();
  EXPECT_EQ(rx.frames.size(), 2u);
  EXPECT_EQ(link.faults(0).dropped(), 1u);
}

TEST(Link, ProbabilisticLossIsSeededAndRoughlyCalibrated) {
  sim::Simulator sim;
  Link link(sim, LinkParams{}, "l");
  Catcher rx;
  rx.sim = &sim;
  link.attach(1, &rx);
  link.faults(0).set_seed(99);
  link.faults(0).set_drop_probability(0.2);
  Frame f;
  f.payload = Buffer::zeros(50);
  for (int i = 0; i < 1000; ++i) link.send(0, f);
  sim.run();
  EXPECT_NEAR(static_cast<double>(link.faults(0).dropped()), 200.0, 50.0);
  EXPECT_EQ(rx.frames.size(), 1000u - link.faults(0).dropped());
}

TEST(Link, CorruptionClearsFcs) {
  sim::Simulator sim;
  Link link(sim, LinkParams{}, "l");
  Catcher rx;
  rx.sim = &sim;
  link.attach(1, &rx);
  link.faults(0).set_corrupt_probability(1.0);
  Frame f;
  f.payload = Buffer::zeros(50);
  link.send(0, f);
  sim.run();
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_FALSE(rx.frames[0].fcs_ok);
}

TEST(Link, DeliveryCreditAdvancesArrivalNotOccupancy) {
  sim::Simulator sim;
  Link link(sim, LinkParams{}, "l");
  Catcher rx;
  rx.sim = &sim;
  link.attach(1, &rx);
  Frame f;
  f.payload = Buffer::zeros(1000);
  link.send(0, f, {}, /*delivery_credit=*/8000);
  sim.run();
  ASSERT_EQ(rx.times.size(), 1u);
  EXPECT_LT(rx.times[0], 1000);       // arrived almost immediately
  EXPECT_GT(link.utilization(0), 0);  // wire still charged in full
}

// --- Switch --------------------------------------------------------------------------

struct SwitchRig {
  sim::Simulator sim;
  net::SwitchParams params;
  Switch sw;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<Catcher>> hosts;

  explicit SwitchRig(int ports, net::SwitchParams p = {})
      : params(p), sw(sim, ports, p, "sw") {
    for (int i = 0; i < ports; ++i) {
      // Built as an lvalue: GCC 12's -Werror=restrict fires a false positive
      // on operator+(const char*, std::string&&) here.
      std::string link_name = "l";
      link_name += std::to_string(i);
      links.push_back(
          std::make_unique<Link>(sim, LinkParams{}, std::move(link_name)));
      hosts.push_back(std::make_unique<Catcher>());
      hosts.back()->sim = &sim;
      links.back()->attach(0, hosts.back().get());
      sw.connect(i, *links.back(), 1);
    }
  }

  void host_send(int port, Frame f) { links[port]->send(0, std::move(f)); }
};

Frame make_frame(MacAddr dst, MacAddr src, std::int64_t size = 100) {
  Frame f;
  f.dst = dst;
  f.src = src;
  f.payload = Buffer::zeros(size);
  return f;
}

TEST(Switch, LearnsAndForwardsUnicast) {
  SwitchRig rig(3);
  const auto a = MacAddr::node(0);
  const auto b = MacAddr::node(1);
  // b announces itself so the first a->b frame needn't flood.
  rig.host_send(1, make_frame(a, b));
  rig.sim.run();
  EXPECT_EQ(rig.sw.learned_port(b), 1);

  rig.host_send(0, make_frame(b, a));
  rig.sim.run();
  EXPECT_EQ(rig.hosts[1]->frames.size(), 1u);  // forwarded, not flooded
  EXPECT_EQ(rig.hosts[2]->frames.size(), 1u);  // only b's initial flood
  EXPECT_EQ(rig.sw.forwarded(), 1u);
}

TEST(Switch, FloodsUnknownUnicast) {
  SwitchRig rig(4);
  rig.host_send(0, make_frame(MacAddr::node(9), MacAddr::node(0)));
  rig.sim.run();
  EXPECT_EQ(rig.hosts[0]->frames.size(), 0u);  // not back out the ingress
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(rig.hosts[i]->frames.size(), 1u);
  }
}

TEST(Switch, BroadcastReachesEveryOtherPort) {
  SwitchRig rig(4);
  rig.host_send(2, make_frame(MacAddr::broadcast(), MacAddr::node(2)));
  rig.sim.run();
  EXPECT_EQ(rig.hosts[2]->frames.size(), 0u);
  for (int i : {0, 1, 3}) EXPECT_EQ(rig.hosts[i]->frames.size(), 1u);
}

TEST(Switch, StaticLearnPreventsFlooding) {
  SwitchRig rig(3);
  rig.sw.learn(MacAddr::node(1), 1);
  rig.host_send(0, make_frame(MacAddr::node(1), MacAddr::node(0)));
  rig.sim.run();
  EXPECT_EQ(rig.hosts[1]->frames.size(), 1u);
  EXPECT_EQ(rig.hosts[2]->frames.size(), 0u);
}

TEST(Switch, OutputQueueTailDrop) {
  net::SwitchParams p;
  p.output_queue_frames = 4;
  SwitchRig rig(3, p);
  rig.sw.learn(MacAddr::node(2), 2);
  // Two ingress ports blast one egress port far beyond its queue.
  for (int i = 0; i < 64; ++i) {
    rig.host_send(0, make_frame(MacAddr::node(2), MacAddr::node(0), 1400));
    rig.host_send(1, make_frame(MacAddr::node(2), MacAddr::node(1), 1400));
  }
  rig.sim.run();
  EXPECT_GT(rig.sw.dropped(), 0u);
  EXPECT_LT(rig.hosts[2]->frames.size(), 128u);
}

TEST(Switch, StoreAndForwardDropsBadFcs) {
  net::SwitchParams p;
  p.cut_through = false;
  SwitchRig rig(2, p);
  rig.links[0]->faults(0).set_corrupt_probability(1.0);
  rig.host_send(0, make_frame(MacAddr::node(1), MacAddr::node(0)));
  rig.sim.run();
  EXPECT_EQ(rig.hosts[1]->frames.size(), 0u);
  EXPECT_EQ(rig.sw.bad_fcs(), 1u);
}

TEST(Switch, CutThroughPassesBadFcsToTheNic) {
  net::SwitchParams p;
  p.cut_through = true;
  SwitchRig rig(2, p);
  rig.links[0]->faults(0).set_corrupt_probability(1.0);
  rig.host_send(0, make_frame(MacAddr::node(1), MacAddr::node(0)));
  rig.sim.run();
  ASSERT_EQ(rig.hosts[1]->frames.size(), 1u);
  EXPECT_FALSE(rig.hosts[1]->frames[0].fcs_ok);
}

}  // namespace
}  // namespace clicsim::net
