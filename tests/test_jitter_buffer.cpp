// JitterBuffer contract tests: drop-late semantics, deadline-miss and
// duplicate accounting, buffer-depth tracking, and the counter identity
// on_time + misses + pending == expected — first against a bare
// Simulator with hand-scheduled fragments, then end-to-end over a lossy,
// reordering CLIC link (net::FaultInjector Gilbert–Elliott loss plus
// bounded-jitter delay), where retransmission makes every fragment arrive
// eventually but not always before its frame's playout deadline.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "apps/jitter_buffer.hpp"
#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

using apps::JitterBuffer;
using Frag = JitterBuffer::Fragment;

TEST(JitterBuffer, CleanDeliveryPlaysEveryFrameOnTime) {
  sim::Simulator sim;
  JitterBuffer jb(sim);
  for (std::uint32_t f = 0; f < 3; ++f) {
    jb.expect_frame(f, 2, sim::SimTime{1000} * (f + 1),
                    sim::SimTime{1000} * (f + 1) + 500);
  }
  for (std::uint32_t f = 0; f < 3; ++f) {
    // Fragments arrive 100 ns and 200 ns after generation, out of order.
    sim.at(sim::SimTime{1000} * (f + 1) + 100, [&jb, f] {
      EXPECT_EQ(jb.on_fragment(f, 1), Frag::kAccepted);
    });
    sim.at(sim::SimTime{1000} * (f + 1) + 200, [&jb, f] {
      EXPECT_EQ(jb.on_fragment(f, 0), Frag::kCompleted);
    });
  }
  sim.run();
  EXPECT_EQ(jb.frames_expected(), 3u);
  EXPECT_EQ(jb.frames_on_time(), 3u);
  EXPECT_EQ(jb.deadline_misses(), 0u);
  EXPECT_EQ(jb.late_fragments(), 0u);
  EXPECT_EQ(jb.pending_frames(), 0u);
  EXPECT_EQ(jb.depth(), 0);
  EXPECT_EQ(jb.max_depth(), 1);
  EXPECT_EQ(jb.latency().count(), 3u);
  EXPECT_EQ(jb.latency().quantile(1.0), 200);
}

TEST(JitterBuffer, LateFragmentsAreDroppedAndCounted) {
  sim::Simulator sim;
  JitterBuffer jb(sim);
  jb.expect_frame(0, 2, 0, 1000);
  sim.at(100, [&jb] { EXPECT_EQ(jb.on_fragment(0, 0), Frag::kAccepted); });
  // Second fragment arrives after the deadline: the frame expired (miss),
  // and the straggler is dropped late.
  sim.at(1500, [&jb] { EXPECT_EQ(jb.on_fragment(0, 1), Frag::kLate); });
  sim.run();
  EXPECT_EQ(jb.deadline_misses(), 1u);
  EXPECT_EQ(jb.frames_on_time(), 0u);
  EXPECT_EQ(jb.late_fragments(), 1u);
  EXPECT_EQ(jb.latency().count(), 0u);
}

TEST(JitterBuffer, DuplicatesWithinAndAfterCompletion) {
  sim::Simulator sim;
  JitterBuffer jb(sim);
  jb.expect_frame(0, 2, 0, 1000);
  sim.at(10, [&jb] {
    EXPECT_EQ(jb.on_fragment(0, 0), Frag::kAccepted);
    EXPECT_EQ(jb.on_fragment(0, 0), Frag::kDuplicate);  // same piece twice
    EXPECT_EQ(jb.on_fragment(0, 1), Frag::kCompleted);
    EXPECT_EQ(jb.on_fragment(0, 1), Frag::kDuplicate);  // frame already whole
  });
  sim.run();
  EXPECT_EQ(jb.duplicate_fragments(), 2u);
  EXPECT_EQ(jb.frames_on_time(), 1u);
}

TEST(JitterBuffer, DepthTracksBufferedFramesAndIdentityHoldsMidRun) {
  sim::Simulator sim;
  JitterBuffer jb(sim);
  // Two frames complete early and sit buffered together; a third never
  // completes. Deadlines: 1000, 1100, 1200.
  jb.expect_frame(0, 1, 0, 1000);
  jb.expect_frame(1, 1, 0, 1100);
  jb.expect_frame(2, 2, 0, 1200);
  sim.at(50, [&jb] {
    (void)jb.on_fragment(0, 0);
    (void)jb.on_fragment(1, 0);
    (void)jb.on_fragment(2, 0);
  });
  sim.run_until(500);  // both complete, no deadline fired yet
  EXPECT_EQ(jb.depth(), 2);
  EXPECT_EQ(jb.pending_frames(), 3u);  // identity: 3 - 0 - 0
  EXPECT_EQ(jb.frames_on_time() + jb.deadline_misses() + jb.pending_frames(),
            jb.frames_expected());
  sim.run();
  EXPECT_EQ(jb.depth(), 0);
  EXPECT_EQ(jb.max_depth(), 2);
  EXPECT_EQ(jb.frames_on_time(), 2u);
  EXPECT_EQ(jb.deadline_misses(), 1u);
  EXPECT_EQ(jb.pending_frames(), 0u);
}

TEST(JitterBuffer, RejectsBadGeometry) {
  sim::Simulator sim;
  JitterBuffer jb(sim);
  EXPECT_THROW(jb.expect_frame(1, 1, 0, 10), std::logic_error);  // not dense
  EXPECT_THROW(jb.expect_frame(0, 0, 0, 10), std::invalid_argument);
  EXPECT_THROW(jb.expect_frame(0, 1, 10, 10), std::invalid_argument);
  jb.expect_frame(0, 1, 0, 10);
  EXPECT_THROW(jb.expect_frame(0, 1, 0, 10), std::logic_error);  // re-register
}

// --- End-to-end over a faulty CLIC link -------------------------------------

struct LinkTrial {
  std::uint64_t on_time = 0;
  std::uint64_t misses = 0;
  std::uint64_t late = 0;
  std::uint64_t pending = 0;
  std::uint64_t expected = 0;
};

// One sender node streams fixed-cadence frames (5 fragments of 1216 B)
// to a JitterBuffer on node 0 over paper CLIC (infinite retries): every
// fragment arrives eventually, so loss converts cleanly into deadline
// misses and late drops, never lost frames.
LinkTrial run_link_trial(bool faults, sim::SimTime deadline) {
  os::ClusterConfig cc;
  cc.nodes = 2;
  apps::ClicBed bed(cc, apps::paper_clic_config());
  if (faults) {
    for (int d = 0; d < 2; ++d) {
      for (int n = 0; n < 2; ++n) {
        auto& f = bed.cluster.link(n, 0).faults(d);
        f.set_seed(99 * 1000003u + static_cast<std::uint64_t>(2 * n + d));
        f.set_gilbert_elliott(0.05, 0.30, 0.001, 0.50);
        f.set_delay(0.05, sim::microseconds(100.0));  // reordering jitter
      }
    }
  }
  constexpr int kFrames = 24;
  constexpr int kFragments = 5;
  constexpr std::int64_t kFragBytes = 1216;
  constexpr sim::SimTime kCadence = 500'000;  // 0.5 ms
  JitterBuffer jb(bed.sim_of(0));
  for (std::uint32_t k = 0; k < kFrames; ++k) {
    jb.expect_frame(k, kFragments, k * kCadence, k * kCadence + deadline);
  }
  bed.module(0).bind_port(13);
  bed.module(1).bind_port(13);

  struct Drive {
    static sim::Task tx(sim::Simulator& sim, clic::ClicModule& mod) {
      for (int k = 0; k < kFrames; ++k) {
        const sim::SimTime gen = static_cast<sim::SimTime>(k) * kCadence;
        if (gen > sim.now()) co_await sim::Delay{sim, gen - sim.now()};
        for (int f = 0; f < kFragments; ++f) {
          (void)co_await mod.send(
              13, 0, 13,
              net::Buffer::pattern(
                  kFragBytes, static_cast<std::uint64_t>(k * kFragments + f)),
              clic::SendMode::kSync);
        }
      }
    }
    static sim::Task rx(JitterBuffer& jb, clic::ClicModule& mod) {
      for (int i = 0; i < kFrames * kFragments; ++i) {
        clic::Message m = co_await mod.recv(13);
        // Fragment identity rides the payload checksum seed ordering: the
        // reliable channel delivers in order per frame, so index by count.
        (void)jb.on_fragment(static_cast<std::uint32_t>(i / kFragments),
                             static_cast<std::uint32_t>(i % kFragments));
      }
    }
  };
  Drive::rx(jb, bed.module(0));
  bed.sim_of(1).at(0, [&bed] { Drive::tx(bed.sim_of(1), bed.module(1)); });
  bed.run();

  LinkTrial t;
  t.on_time = jb.frames_on_time();
  t.misses = jb.deadline_misses();
  t.late = jb.late_fragments();
  t.pending = jb.pending_frames();
  t.expected = jb.frames_expected();
  return t;
}

TEST(JitterBufferLink, CleanLinkNeverMissesDeadlines) {
  const LinkTrial t = run_link_trial(false, sim::microseconds(400.0));
  EXPECT_EQ(t.expected, 24u);
  EXPECT_EQ(t.on_time, 24u);
  EXPECT_EQ(t.misses, 0u);
  EXPECT_EQ(t.late, 0u);
  EXPECT_EQ(t.pending, 0u);
}

TEST(JitterBufferLink, GilbertElliottLossConvertsToDeadlineMisses) {
  const LinkTrial t = run_link_trial(true, sim::microseconds(400.0));
  EXPECT_EQ(t.expected, 24u);
  // Burst loss makes some frames blow their playout budget (the RTO clock
  // is far coarser than the 400 us deadline), and every expired frame's
  // retransmitted fragments arrive late.
  EXPECT_GT(t.misses, 0u);
  EXPECT_GT(t.late, 0u);
  // Bounded failure accounting: at quiesce every frame resolved one way.
  EXPECT_EQ(t.on_time + t.misses, t.expected);
  EXPECT_EQ(t.pending, 0u);
  // Determinism: the same seeds replay the same storm.
  const LinkTrial again = run_link_trial(true, sim::microseconds(400.0));
  EXPECT_EQ(again.on_time, t.on_time);
  EXPECT_EQ(again.misses, t.misses);
  EXPECT_EQ(again.late, t.late);
}

}  // namespace
}  // namespace clicsim
