#include "sim/event_queue.hpp"

#include <stdexcept>

namespace clicsim::sim {

std::uint32_t EventQueue::acquire_slot_slow() {
  if (slab_size_ > kSlotMask) {
    throw std::length_error("EventQueue: more than 2^24 pending events");
  }
  if ((slab_size_ >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Action[]>(kChunkSize));
  }
  tags_.push_back(kNoEvent);
  return slab_size_++;
}

}  // namespace clicsim::sim
