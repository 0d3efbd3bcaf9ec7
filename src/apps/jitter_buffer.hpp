// Receive-side frame reassembly with playout deadlines: the jitter buffer
// of the streaming workload (DESIGN.md §4j), modeled on the TReassembly
// idiom of Gen-Tau-Client (SNIPPETS.md §2).
//
// A stream is a sequence of fixed-cadence frames, each fragmented over the
// transport. The receiver registers every expected frame up front (frame
// generation times are a pure function of the stream config, so sender and
// receiver agree without exchanging metadata) and the buffer schedules one
// playout event per frame at its deadline:
//
//   * a frame whose fragments all arrived before its deadline sits in the
//     buffer (depth) until the deadline plays it — counted on_time;
//   * a frame still incomplete at its deadline is expired — counted as a
//     deadline miss, its partial reassembly state discarded;
//   * fragments arriving for an expired frame are dropped on arrival
//     (drop-late semantics) and counted, as are duplicates (fault
//     injection duplicates frames; retransmission can too).
//
// Completion latency (complete − generated) of every played frame is
// recorded in an internal HdrHistogram, mergeable across streams in
// stream-index order.
//
// The buffer lives on the receiving node's simulator/shard: on_fragment()
// must be called from that shard's context (the receive path), which keeps
// all counters single-writer under the PDES engine.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace clicsim::apps {

class JitterBuffer {
 public:
  explicit JitterBuffer(sim::Simulator& sim);

  // Registers frame `frame` (dense, ascending from 0) of `fragments`
  // pieces, generated at `generated`, to be played at `deadline`
  // (> generated). Schedules the playout/expiry event. Must be called
  // before the frame's first fragment arrives (normally: all frames at
  // setup, before the run).
  void expect_frame(std::uint32_t frame, int fragments, sim::SimTime generated,
                    sim::SimTime deadline);

  enum class Fragment {
    kAccepted,   // new fragment of a pending frame
    kCompleted,  // this fragment completed its frame (now buffered)
    kDuplicate,  // already had this fragment (or the whole frame)
    kLate,       // frame already expired: dropped on arrival
  };

  // A fragment of `frame` arrived at sim.now().
  Fragment on_fragment(std::uint32_t frame, std::uint32_t index);

  // --- Telemetry -----------------------------------------------------------

  [[nodiscard]] std::uint64_t frames_expected() const { return expected_; }
  [[nodiscard]] std::uint64_t frames_on_time() const { return on_time_; }
  [[nodiscard]] std::uint64_t deadline_misses() const { return misses_; }
  [[nodiscard]] std::uint64_t late_fragments() const { return late_frags_; }
  [[nodiscard]] std::uint64_t duplicate_fragments() const { return dups_; }

  // Frames whose playout deadline has not fired yet (the in-flight term of
  // the accounting identity: on_time + misses == expected - pending).
  [[nodiscard]] std::uint64_t pending_frames() const {
    return expected_ - on_time_ - misses_;
  }

  // Complete frames currently held awaiting playout, and the high-water
  // mark of that depth.
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] int max_depth() const { return max_depth_; }

  // Completion latency (ns) of every frame that played on time.
  [[nodiscard]] const sim::HdrHistogram& latency() const { return latency_; }

 private:
  enum class State : std::uint8_t { kPending, kBuffered, kPlayed, kExpired };

  struct FrameState {
    sim::SimTime generated = 0;
    int fragments = 0;
    int received = 0;
    State state = State::kPending;
    std::vector<bool> have;
  };

  void playout(std::uint32_t frame);

  sim::Simulator* sim_;
  std::vector<FrameState> frames_;
  sim::HdrHistogram latency_;
  std::uint64_t expected_ = 0;
  std::uint64_t on_time_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t late_frags_ = 0;
  std::uint64_t dups_ = 0;
  int depth_ = 0;
  int max_depth_ = 0;
};

}  // namespace clicsim::apps
