#include "apps/jitter_buffer.hpp"

#include <algorithm>
#include <stdexcept>

namespace clicsim::apps {

JitterBuffer::JitterBuffer(sim::Simulator& sim) : sim_(&sim) {}

void JitterBuffer::expect_frame(std::uint32_t frame, int fragments,
                                sim::SimTime generated, sim::SimTime deadline) {
  if (frame != frames_.size()) {
    throw std::logic_error("JitterBuffer: frames must be registered densely");
  }
  if (fragments < 1 || deadline <= generated) {
    throw std::invalid_argument("JitterBuffer: bad frame geometry");
  }
  FrameState fs;
  fs.generated = generated;
  fs.fragments = fragments;
  fs.have.assign(static_cast<std::size_t>(fragments), false);
  frames_.push_back(std::move(fs));
  ++expected_;
  sim_->at(deadline, [this, frame] { playout(frame); });
}

JitterBuffer::Fragment JitterBuffer::on_fragment(std::uint32_t frame,
                                                 std::uint32_t index) {
  FrameState& fs = frames_.at(frame);
  switch (fs.state) {
    case State::kExpired:
      ++late_frags_;
      return Fragment::kLate;
    case State::kBuffered:
    case State::kPlayed:
      ++dups_;
      return Fragment::kDuplicate;
    case State::kPending:
      break;
  }
  if (fs.have.at(index)) {
    ++dups_;
    return Fragment::kDuplicate;
  }
  fs.have[index] = true;
  if (++fs.received < fs.fragments) return Fragment::kAccepted;
  fs.state = State::kBuffered;
  fs.have.clear();
  max_depth_ = std::max(max_depth_, ++depth_);
  latency_.add(sim_->now() - fs.generated);
  return Fragment::kCompleted;
}

void JitterBuffer::playout(std::uint32_t frame) {
  FrameState& fs = frames_.at(frame);
  if (fs.state == State::kBuffered) {
    fs.state = State::kPlayed;
    --depth_;
    ++on_time_;
  } else {
    // Still incomplete at the deadline: expire it and discard the partial
    // reassembly; any fragment that arrives later is dropped as late.
    fs.state = State::kExpired;
    fs.have.clear();
    ++misses_;
  }
}

}  // namespace clicsim::apps
