// Message framing written once (net::fragments, net::MessageAssembler), the
// assembler against a seeded reference model, the protocols' reassembly
// under loss (a best-effort protocol must deliver its sender's message byte
// for byte, or nothing) and the zero-copy reassembly of whole messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/testbed.hpp"
#include "net/buffer_pool.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

// --- The fragmenter ----------------------------------------------------------

TEST(Fragments, EmptyMessageIsOneEmptyFragment) {
  const auto f = net::fragments(0, 1488, 40);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].offset, 0);
  EXPECT_EQ(f[0].length, 0);
}

TEST(Fragments, FirstOverheadShrinksOnlyTheFirstFrame) {
  const auto f = net::fragments(3000, 1000, 100);  // 900 + 1000 + 1000 + 100
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0].length, 900);
  EXPECT_EQ(f[1].offset, 900);
  EXPECT_EQ(f[1].length, 1000);
  EXPECT_EQ(f[3].offset, 2900);
  EXPECT_EQ(f[3].length, 100);
  // An overhead that fills the whole chunk still moves one byte.
  const auto g = net::fragments(3, 10, 10);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0].length, 1);
  EXPECT_EQ(g[1].length, 2);
}

TEST(Fragments, ExactMultiplesLeaveNoEmptyTail) {
  const auto f = net::fragments(4000, 1000);
  ASSERT_EQ(f.size(), 4u);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i].offset, static_cast<std::int64_t>(1000 * i));
    EXPECT_EQ(f[i].length, 1000);
  }
  const auto g = net::fragments(2900, 1000, 100);  // 900 + 1000 + 1000
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.back().length, 1000);
  EXPECT_EQ(net::fragments(1000, 1000).size(), 1u);
}

TEST(Fragments, SlicesTileTheMessageWithinBudget) {
  for (std::int64_t size : {1, 99, 100, 101, 1487, 1488, 1489, 9000}) {
    for (std::int64_t overhead : {0, 8, 40}) {
      const auto f = net::fragments(size, 100, overhead);
      std::int64_t next = 0;
      for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_EQ(f[i].offset, next);
        EXPECT_GT(f[i].length, 0);
        EXPECT_LE(f[i].length, i == 0 ? 100 - overhead : 100);
        next += f[i].length;
      }
      EXPECT_EQ(next, size);
    }
  }
}

// --- The assembler -----------------------------------------------------------

TEST(MessageAssembler, RebuildsFirstThroughLast) {
  net::MessageAssembler a;
  const net::Buffer msg = net::Buffer::pattern(100, 3);
  EXPECT_TRUE(a.add(msg.slice(0, 40), true));
  EXPECT_TRUE(a.add(msg.slice(40, 60), false));
  EXPECT_EQ(a.size(), 100);
  EXPECT_TRUE(a.finish().content_equals(msg));
  EXPECT_EQ(a.size(), 0);
}

TEST(MessageAssembler, TailWithoutFirstFragmentIsDropped) {
  net::MessageAssembler a;
  EXPECT_FALSE(a.add(net::Buffer::zeros(10), false));
  EXPECT_EQ(a.size(), 0);
  // A finished message closes the assembler too.
  EXPECT_TRUE(a.add(net::Buffer::zeros(5), true));
  EXPECT_EQ(a.finish().size(), 5);
  EXPECT_FALSE(a.add(net::Buffer::zeros(7), false));
  EXPECT_EQ(a.size(), 0);
}

TEST(MessageAssembler, AbortDropsUntilTheNextFirstFragment) {
  net::MessageAssembler a;
  EXPECT_TRUE(a.add(net::Buffer::pattern(30, 1), true));
  a.abort();
  EXPECT_EQ(a.size(), 0);
  EXPECT_FALSE(a.add(net::Buffer::pattern(30, 2), false));
  const net::Buffer fresh = net::Buffer::pattern(20, 4);
  EXPECT_TRUE(a.add(fresh, true));
  EXPECT_TRUE(a.finish().content_equals(fresh));
}

TEST(MessageAssembler, FirstFragmentDiscardsAPartialMessage) {
  net::MessageAssembler a;
  EXPECT_TRUE(a.add(net::Buffer::pattern(30, 1), true));
  const net::Buffer fresh = net::Buffer::pattern(20, 4);
  EXPECT_TRUE(a.add(fresh, true));
  EXPECT_TRUE(a.finish().content_equals(fresh));
}

// --- The assembler against a reference model ---------------------------------

// Seeded adversarial streams: two patterned messages cut as a protocol cuts
// them, whose fragments arrive interleaved, duplicated, swapped, dropped and
// out of place. A last fragment finishes the open message, as in every
// protocol, and now and then the stream aborts or finishes mid-message.
// Every finish() must return the concatenation of the fragments added
// since the last first fragment, and must alias the source message exactly
// when those fragments are consecutive slices of it.
class AdversarialAssembly : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AdversarialAssembly, EveryFinishMatchesTheReferenceModel) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed, "assembler");
  net::BufferPool pool;
  net::BufferPool::Scope scope(&pool);

  struct Source {
    net::Buffer buffer;
    std::vector<std::byte> bytes;
    std::vector<net::Fragment> cut;
    std::size_t next = 0;  // the fragment an in-order stream sends next
  };
  std::array<Source, 2> src;
  for (std::size_t m = 0; m < src.size(); ++m) {
    Source& s = src[m];
    s.buffer = net::Buffer::pattern(rng.uniform_int(1, 12000), seed * 2 + m);
    s.bytes.assign(s.buffer.data().begin(), s.buffer.data().end());
    // One chunk for both, so a fragment of one message can sit right after
    // the fragment of the other that ends at its offset.
    s.cut = net::fragments(s.buffer.size(), 1000, 12);
  }

  struct Piece {
    std::size_t msg;
    net::Fragment frag;
  };
  net::MessageAssembler assembler;
  bool open = false;  // the model: open flag and the pieces held
  std::vector<Piece> held;
  int aliased = 0;
  int copied = 0;

  auto finish = [&] {
    const net::Buffer got = assembler.finish();
    std::vector<std::byte> expect;
    bool tiles = !held.empty();
    for (std::size_t k = 0; k < held.size(); ++k) {
      const auto& [m, f] = held[k];
      const auto from = src[m].bytes.begin() + f.offset;
      expect.insert(expect.end(), from, from + f.length);
      if (k > 0) {
        const Piece& prev = held[k - 1];
        tiles = tiles && m == prev.msg &&
                f.offset == prev.frag.offset + prev.frag.length;
      }
    }
    ASSERT_EQ(got.size(), static_cast<std::int64_t>(expect.size()));
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), got.data().begin(),
                           got.data().end()));
    const bool alias =
        !held.empty() &&
        got.storage_identity() == src[held[0].msg].buffer.storage_identity();
    EXPECT_EQ(alias, tiles) << held.size() << " pieces";
    if (!held.empty()) ++(tiles ? aliased : copied);
    held.clear();
    open = false;
  };
  auto feed = [&](std::size_t m, std::size_t i) {
    const net::Fragment f = src[m].cut[i];
    const bool first = i == 0;
    if (first) {
      held.clear();
      open = true;
    }
    if (open) held.push_back({m, f});
    const bool accepted =
        assembler.add(src[m].buffer.slice(f.offset, f.length), first);
    EXPECT_EQ(accepted, open);
    if (accepted && i + 1 == src[m].cut.size()) finish();
  };

  std::size_t m = 0;  // the message the stream is sending now
  for (int step = 0; step < 1000; ++step) {
    if (rng.uniform_int(0, 4) == 0) m = 1 - m;  // interleave
    Source& s = src[m];
    const std::size_t n = s.cut.size();
    switch (rng.uniform_int(0, 19)) {
      case 0:
      case 1:  // duplicate the fragment sent last
        feed(m, (s.next + n - 1) % n);
        break;
      case 2:
      case 3:  // drop the next fragment
        s.next = (s.next + 1) % n;
        break;
      case 4:
      case 5:  // swap the next two
        feed(m, (s.next + 1) % n);
        feed(m, s.next);
        s.next = (s.next + 2) % n;
        break;
      case 6:  // a stray fragment from anywhere in the message
        feed(m, static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
        break;
      case 7:  // the protocol saw a gap
        assembler.abort();
        held.clear();
        open = false;
        break;
      case 8:  // a finish before the last fragment
        if (open) finish();
        break;
      default:
        feed(m, s.next);
        s.next = (s.next + 1) % n;
    }
    EXPECT_EQ(assembler.size(), [&] {
      std::int64_t bytes = 0;
      for (const Piece& p : held) bytes += p.frag.length;
      return bytes;
    }());
  }
  // The stream exercised both outcomes.
  EXPECT_GT(aliased, 0);
  EXPECT_GT(copied, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialAssembly,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Protocol regressions ----------------------------------------------------

sim::Task gamma_send(gamma::GammaModule& m, int dst, int port,
                     std::vector<net::Buffer> messages) {
  for (auto& msg : messages) (void)co_await m.send(dst, port, std::move(msg));
}

TEST(GammaReassembly, TwoSendersToOnePortBothArriveIntact) {
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::GammaBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  std::vector<gamma::Message> got;
  bed.module(2).register_port(
      3, [&got](gamma::Message m) { got.push_back(std::move(m)); });
  const net::Buffer from0 = net::Buffer::pattern(5000, 1);
  const net::Buffer from1 = net::Buffer::pattern(5000, 2);
  gamma_send(bed.module(0), 2, 3, {from0});
  gamma_send(bed.module(1), 2, 3, {from1});
  bed.run();

  ASSERT_EQ(got.size(), 2u);
  for (const auto& m : got) {
    ASSERT_TRUE(m.src_node == 0 || m.src_node == 1);
    EXPECT_TRUE(m.data.content_equals(m.src_node == 0 ? from0 : from1))
        << "message from node " << m.src_node << " torn: "
        << m.data.size() << " B";
  }
  EXPECT_NE(got[0].src_node, got[1].src_node);
  EXPECT_EQ(bed.module(2).dropped_no_port(), 0u);
}

// Completions on `vi`'s queue, taken after the traffic ended.
sim::Task via_take(via::Vi& vi, std::vector<via::Completion>& out) {
  out.push_back(co_await vi.poll_wait());
}
std::vector<via::Completion> via_drain(apps::ViaBed& bed, via::Vi& vi) {
  std::vector<via::Completion> got;
  while (vi.completions_pending() > 0) {
    via_take(vi, got);
    bed.run();
  }
  return got;
}

// Node 0 sends two 3,000 B messages (frames 0-2 and 3-5) to node 1, which
// loses the frames GetParam() names on the switch -> node 1 direction:
// a middle frame, or the first message's last frame with the second
// message's first two. A byte offset counted within each message would
// splice the second case into one 3,000 B message.
class ViaFrameLoss
    : public ::testing::TestWithParam<std::vector<std::uint64_t>> {};

TEST_P(ViaFrameLoss, CompletesNoTornReceive) {
  apps::ViaBed bed;
  bed.cluster.set_mtu_all(1500);
  via::Vi& a = bed.provider(0).create_vi();
  via::Vi& b = bed.provider(1).create_vi();
  a.connect(1, b.id());
  b.connect(0, a.id());
  b.post_recv(10000);
  b.post_recv(10000);
  for (const std::uint64_t frame : GetParam()) {
    bed.cluster.link(1).faults(1).drop_frame_index(frame);
  }
  const net::Buffer first = net::Buffer::pattern(3000, 7);
  const net::Buffer second = net::Buffer::pattern(3000, 8);
  a.post_send(first);
  a.post_send(second);
  bed.run();

  for (const auto& c : via_drain(bed, b)) {
    EXPECT_TRUE(c.data.content_equals(first) ||
                c.data.content_equals(second))
        << "completed a torn " << c.data.size() << " B receive";
  }
}

INSTANTIATE_TEST_SUITE_P(LostFrames, ViaFrameLoss,
                         ::testing::Values(std::vector<std::uint64_t>{1},
                                           std::vector<std::uint64_t>{2, 3,
                                                                      4}));

constexpr int kPort = 9;

sim::Task clic_take(clic::ClicModule& m, std::vector<clic::Message>& out) {
  out.push_back(co_await m.recv(kPort));
}

// Every message queued on `node`'s port, received after the traffic ended.
std::vector<clic::Message> drain(apps::ClicBed& bed, int node) {
  std::vector<clic::Message> got;
  while (bed.module(node).poll(kPort)) {
    clic_take(bed.module(node), got);
    bed.run();
  }
  return got;
}

sim::Task clic_broadcast(clic::ClicModule& m,
                         std::vector<net::Buffer> messages) {
  for (auto& msg : messages) {
    (void)co_await m.broadcast(kPort, kPort, std::move(msg));
  }
}

class ClicBroadcastLoss : public ::testing::TestWithParam<int> {};

TEST_P(ClicBroadcastLoss, TornBroadcastIsNotDelivered) {
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::ClicBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  for (int n = 0; n < 3; ++n) bed.module(n).bind_port(kPort);
  // Frame GetParam() of the four on the switch -> node 2 direction.
  bed.cluster.link(2).faults(1).drop_frame_index(
      static_cast<std::uint64_t>(GetParam()));
  const net::Buffer payload = net::Buffer::pattern(5000, 7);
  clic_broadcast(bed.module(0), {payload});
  bed.run();

  const auto intact = drain(bed, 1);
  ASSERT_EQ(intact.size(), 1u);
  EXPECT_TRUE(intact[0].data.content_equals(payload));
  const auto torn = drain(bed, 2);
  EXPECT_TRUE(torn.empty()) << "node 2 got " << torn[0].data.size() << " B";
  EXPECT_EQ(bed.module(2).messages_received(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LostFrame, ClicBroadcastLoss, ::testing::Values(0, 1));

// --- Zero-copy reassembly end to end -----------------------------------------

// Pool data blocks handed out so far (minted or recycled).
std::uint64_t data_acquisitions(const net::BufferPool& pool) {
  const auto s = pool.stats();
  return s.data_heap_allocs + s.data_reuses;
}

// A 1 MiB message cut into MTU-9000 frames travels as slices of the
// sender's buffer and is put back together as that buffer: the receiver
// gets the sender's bytes with no host copy anywhere on the path.
TEST(ZeroCopyReassembly, ClicMessageArrivesAsTheSendersBuffer) {
  apps::ClicBed bed;
  bed.cluster.set_mtu_all(9000);
  bed.module(0).bind_port(kPort);
  bed.module(1).bind_port(kPort);
  const net::Buffer payload = net::Buffer::pattern(1 << 20, 41);
  const std::uint64_t before = data_acquisitions(bed.pool);
  auto tx = [](clic::ClicModule& m, net::Buffer data) -> sim::Task {
    const auto st = co_await m.send(kPort, 1, kPort, std::move(data),
                                    clic::SendMode::kConfirmed);
    EXPECT_TRUE(st.ok);
  };
  std::vector<clic::Message> got;
  tx(bed.module(0), payload);
  clic_take(bed.module(1), got);
  bed.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data.storage_identity(), payload.storage_identity());
  EXPECT_TRUE(got[0].data.content_equals(payload));
  EXPECT_EQ(data_acquisitions(bed.pool), before);
}

TEST(ZeroCopyReassembly, TcpStreamArrivesAsTheSendersBuffer) {
  apps::TcpBed bed;
  bed.cluster.set_mtu_all(9000);
  bed.tcp[1]->listen(5000);
  const net::Buffer payload = net::Buffer::pattern(1 << 20, 42);
  const std::uint64_t before = data_acquisitions(bed.pool);
  auto client = [](tcpip::TcpStack& tcp, net::Buffer data) -> sim::Task {
    auto& s = tcp.create_socket();
    const bool connected = co_await s.connect(1, 5000);
    EXPECT_TRUE(connected);
    const std::int64_t sent = co_await s.send(data);
    EXPECT_EQ(sent, data.size());
  };
  auto server = [](tcpip::TcpStack& tcp, std::int64_t n,
                   net::Buffer* out) -> sim::Task {
    tcpip::TcpSocket* s = co_await tcp.accept(5000);
    *out = co_await s->recv_exact(n);
  };
  net::Buffer got;
  client(*bed.tcp[0], payload);
  server(*bed.tcp[1], payload.size(), &got);
  bed.run();
  EXPECT_EQ(got.storage_identity(), payload.storage_identity());
  EXPECT_TRUE(got.content_equals(payload));
  EXPECT_EQ(data_acquisitions(bed.pool), before);
}

// --- Seeded loss sweep -------------------------------------------------------

// Message k of a sender: a distinct size (2 to 9 frames at MTU 1500), so
// the size alone names the message and hence its expected pattern.
constexpr int kMessages = 16;
std::int64_t message_size(int k) { return 1800 + 701 * k; }
net::Buffer message(std::uint64_t seed, int src, int k) {
  const auto id = static_cast<std::uint64_t>(src * 100 + k);
  return net::Buffer::pattern(message_size(k), seed * 1000 + id);
}
int message_index(std::int64_t size) {
  for (int k = 0; k < kMessages; ++k) {
    if (message_size(k) == size) return k;
  }
  return -1;
}
std::vector<net::Buffer> messages_of(std::uint64_t seed, int src) {
  std::vector<net::Buffer> out;
  for (int k = 0; k < kMessages; ++k) out.push_back(message(seed, src, k));
  return out;
}

void arm_loss(os::Cluster& cluster, std::uint64_t seed) {
  for (int n = 0; n < cluster.size(); ++n) {
    for (int d = 0; d < 2; ++d) {
      auto& faults = cluster.link(n).faults(d);
      faults.set_seed(seed * 16 + static_cast<std::uint64_t>(n * 2 + d));
      faults.set_drop_probability(0.03);
    }
  }
}

class ReassemblyUnderLoss : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReassemblyUnderLoss, ClicBroadcastsArriveWholeOrNotAtAll) {
  const std::uint64_t seed = GetParam();
  os::ClusterConfig cc;
  cc.nodes = 4;
  apps::ClicBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  arm_loss(bed.cluster, seed);
  for (int n = 0; n < 4; ++n) bed.module(n).bind_port(kPort);
  // Two broadcasters, so receivers assemble from two peers at once.
  clic_broadcast(bed.module(0), messages_of(seed, 0));
  clic_broadcast(bed.module(1), messages_of(seed, 1));
  bed.run();

  int delivered = 0;
  for (int n = 0; n < 4; ++n) {
    for (const auto& m : drain(bed, n)) {
      ASSERT_TRUE(m.src_node == 0 || m.src_node == 1);
      const int k = message_index(m.data.size());
      ASSERT_GE(k, 0) << "node " << n << " got a torn " << m.data.size()
                      << " B message from node " << m.src_node;
      EXPECT_TRUE(m.data.content_equals(message(seed, m.src_node, k)))
          << "node " << n << ", message " << k << " of node " << m.src_node;
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 0);
  // Nodes 0 and 1 each hear the other sender, nodes 2 and 3 both: fewer
  // than all 96 deliveries shows the loss really tore messages.
  EXPECT_LT(delivered, 6 * kMessages);
}

TEST_P(ReassemblyUnderLoss, GammaTwoSenderMessagesArriveWholeOrNotAtAll) {
  const std::uint64_t seed = GetParam();
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::GammaBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  arm_loss(bed.cluster, seed);
  std::vector<gamma::Message> got;
  bed.module(2).register_port(
      3, [&got](gamma::Message m) { got.push_back(std::move(m)); });
  gamma_send(bed.module(0), 2, 3, messages_of(seed, 0));
  gamma_send(bed.module(1), 2, 3, messages_of(seed, 1));
  bed.run();

  for (const auto& m : got) {
    ASSERT_TRUE(m.src_node == 0 || m.src_node == 1);
    const int k = message_index(m.data.size());
    ASSERT_GE(k, 0) << "torn " << m.data.size() << " B message from node "
                    << m.src_node;
    EXPECT_TRUE(m.data.content_equals(message(seed, m.src_node, k)))
        << "message " << k << " of node " << m.src_node;
  }
  EXPECT_GT(got.size(), 0u);
  EXPECT_LT(got.size(), 2u * kMessages);  // the loss really tore messages
}

sim::Task via_send(via::Vi& vi, std::vector<net::Buffer> messages) {
  for (auto& msg : messages) {
    vi.post_send(std::move(msg));
    (void)co_await vi.poll_wait();  // the send completion
  }
}

TEST_P(ReassemblyUnderLoss, ViaTwoSenderMessagesArriveWholeOrNotAtAll) {
  const std::uint64_t seed = GetParam();
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::ViaBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  arm_loss(bed.cluster, seed);
  // Node 2 has one VI per sender, with a descriptor for every message, each
  // large enough for any of them.
  std::vector<via::Vi*> rx;
  for (int src = 0; src < 2; ++src) {
    via::Vi& tx = bed.provider(src).create_vi();
    via::Vi& vi = bed.provider(2).create_vi();
    tx.connect(2, vi.id());
    vi.connect(src, tx.id());
    for (int k = 0; k < kMessages; ++k) {
      vi.post_recv(message_size(kMessages - 1));
    }
    via_send(tx, messages_of(seed, src));
    rx.push_back(&vi);
  }
  bed.run();

  std::size_t received = 0;
  for (int src = 0; src < 2; ++src) {
    for (const auto& c : via_drain(bed, *rx[static_cast<std::size_t>(src)])) {
      ASSERT_EQ(c.src_node, src);
      const int k = message_index(c.data.size());
      ASSERT_GE(k, 0) << "torn " << c.data.size() << " B message from node "
                      << src;
      EXPECT_TRUE(c.data.content_equals(message(seed, src, k)))
          << "message " << k << " of node " << src;
      ++received;
    }
  }
  EXPECT_GT(received, 0u);
  EXPECT_LT(received, 2u * kMessages);  // the loss really tore messages
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyUnderLoss,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace clicsim
