// Deterministic time-ordered event queue.
//
// Events scheduled for the same instant execute in insertion order (a
// monotonically increasing sequence number breaks ties), which makes every
// simulation run bit-reproducible for a given seed and parameter set.
//
// Layout: the heap orders 16-byte POD handles {time, seq|slot} in an
// index-based 4-ary min-heap, while the callbacks live in a recycling slab
// addressed by the handle's slot bits. Sift operations therefore move two
// machine words per level instead of entries carrying a type-erased
// callable, and slab slots are reused through a free list so a simulation
// in steady state performs no allocation per event.
//
// Dispatch leaves the root vacant while the earliest event's callback runs.
// The callback's first schedule fills the root and sifts down once (a
// replace-top: a near-future child stops within a level or two), instead
// of the heap sinking its last, typically far-future handle from the root
// and then raising the child back up. Keys are unique (time, seq) pairs, so
// which physical layout the heap takes never changes the dispatch order.
//
// Cancellation: emplace returns an EventId, and cancel() destroys that
// event's closure and recycles its slot at once. The 16-byte handle stays
// in the heap, marked dead because its slot's tag no longer matches it,
// and is dropped whenever it reaches the root. A non-vacant root is thus
// always live: a cancelled event never runs and never shows in size() or
// next_time().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

// Names one scheduled event for cancellation. Never kNoEvent.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  using Action = sim::Action;

  // Schedules the callable `f` at absolute time `t`, constructing it
  // directly in its slab slot. Same-time events run in emplace order.
  template <typename F>
  EventId emplace(SimTime t, F&& f) {
    const std::uint32_t slot = acquire_slot();
    slot_ref(slot) = std::forward<F>(f);
    const EventId id = (next_seq_++ << kSlotBits) | slot;
    tags_[slot] = id;
    insert_handle(t, id);
    return id;
  }

  // Destroys a pending event's closure now. Returns false when the event
  // already ran, is running or was cancelled.
  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    if (id == kNoEvent || slot >= slab_size_ || tags_[slot] != id) {
      return false;
    }
    release(slot);
    ++cancelled_;
    if (!root_vacant_) drop_cancelled_root();
    return true;
  }

  // empty(), size() and next_time() count only live events, and stay
  // exact while a callback runs with the root vacant.
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const {
    return heap_.size() - (root_vacant_ ? 1 : 0) - cancelled_;
  }

  // Time of the earliest pending event; kNever when empty.
  [[nodiscard]] SimTime next_time() const {
    if (!root_vacant_) return heap_.empty() ? kNever : heap_[0].time;
    // Vacant root: the earliest pending event is below one of its children.
    return earliest_below(0);
  }

  // Removes the earliest event and runs its callback *in place* in the
  // slab. Skipping the move-out saves a relocation + destruction per event;
  // it is safe because slab chunks never move, so callbacks scheduled from
  // inside the running callback cannot invalidate its storage. The slot is
  // recycled only after the callback returns, so such a schedule cannot
  // overwrite the executing closure either. Precondition: !empty().
  void run_earliest() {
    if (root_vacant_) close_root();  // re-entered from a running callback
    const auto slot = static_cast<std::uint32_t>(heap_[0].seq_slot & kSlotMask);
    tags_[slot] = kNoEvent;  // running: no longer cancellable
    root_vacant_ = true;
    try {
      slot_ref(slot)();
    } catch (...) {
      retire(slot);
      throw;
    }
    retire(slot);
  }

 private:
  // 16-byte heap handle. The low kSlotBits of `seq_slot` address the slab
  // slot holding the callback; the high bits carry the insertion sequence.
  // Sequence numbers are unique, so comparing the packed word compares the
  // sequence (slot bits can never decide), which keeps the same-time
  // tie-break a single integer comparison. The packing bounds one queue at
  // 2^40 (~10^12) lifetime events and 2^24 concurrently pending ones. The
  // word doubles as the EventId; sequences start at 1, so it is never 0.
  struct Handle {
    SimTime time;
    std::uint64_t seq_slot;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  static bool earlier(const Handle& a, const Handle& b) {
#ifdef __SIZEOF_INT128__
    // Branch-free lexicographic (time, seq) compare: fold the handle into
    // one signed 128-bit key. Event times are effectively random, so the
    // short-circuit form mispredicts on nearly every sift step; the folded
    // compare is a cmp/sbb pair with no branch at all.
    const auto ka = (static_cast<__int128>(a.time) << 64) |
                    static_cast<unsigned __int128>(a.seq_slot);
    const auto kb = (static_cast<__int128>(b.time) << 64) |
                    static_cast<unsigned __int128>(b.seq_slot);
    return ka < kb;
#else
    return a.time < b.time ||
           (a.time == b.time && a.seq_slot < b.seq_slot);
#endif
  }

  // The slab is chunked so slots have stable addresses: growth appends a
  // chunk instead of reallocating (which would relocate every pending
  // callback — and dangle the one executing in place in run_earliest).
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] Action& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return acquire_slot_slow();
  }
  std::uint32_t acquire_slot_slow();  // grows the slab (cold path)

  // Destroys a slot's closure and recycles the slot. Its tag no longer
  // matches any handle, which is what marks a cancelled handle.
  void release(std::uint32_t slot) {
    tags_[slot] = kNoEvent;
    slot_ref(slot) = nullptr;
    free_.push_back(slot);
  }

  [[nodiscard]] bool live(const Handle& h) const {
    return tags_[h.seq_slot & kSlotMask] == h.seq_slot;
  }

  void insert_handle(SimTime t, EventId id) {
    const Handle h{t, id};
    if (root_vacant_) {
      // First child of the running event: it takes the dispatched event's
      // place at the root.
      root_vacant_ = false;
      sift_down(0, h);
      drop_cancelled_root();  // a cancelled child may have risen to it
      return;
    }
    heap_.emplace_back();  // hole; sift_up fills it
    sift_up(heap_.size() - 1, h);
  }

  // Removes heap_[0], as a plain pop would.
  void pop_root() {
    const Handle last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  // Restores the invariant that a non-vacant root is live.
  void drop_cancelled_root() {
    while (cancelled_ != 0 && !heap_.empty() && !live(heap_[0])) {
      pop_root();
      --cancelled_;
    }
  }

  void close_root() {
    root_vacant_ = false;
    pop_root();
    drop_cancelled_root();
  }

  // Finishes a dispatch, normally or on unwind: the queue is consistent
  // again and the callback's slot is free.
  void retire(std::uint32_t slot) {
    if (root_vacant_) close_root();
    release(slot);
  }

  // Earliest live time in the subtrees under heap_[i]. Heap order holds
  // across cancelled handles, so only a cancelled child is looked through.
  [[nodiscard]] SimTime earliest_below(std::size_t i) const {
    SimTime t = kNever;
    const std::size_t first = (i << 2) + 1;
    const std::size_t end = std::min(first + 4, heap_.size());
    for (std::size_t c = first; c < end; ++c) {
      if (heap_[c].time >= t) continue;
      t = cancelled_ == 0 || live(heap_[c]) ? heap_[c].time
                                            : std::min(t, earliest_below(c));
    }
    return t;
  }

  void sift_up(std::size_t i, Handle h) {
    Handle* a = heap_.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(h, a[parent])) break;
      a[i] = a[parent];
      i = parent;
    }
    a[i] = h;
  }

  void sift_down(std::size_t i, Handle h) {
    const std::size_t n = heap_.size();
    Handle* a = heap_.data();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      std::size_t best;
      if (first + 3 < n) {
        // Full fan-out: pairwise min keeps the scan short-circuit-free.
        const std::size_t b0 = first + (earlier(a[first + 1], a[first]) ? 1 : 0);
        const std::size_t b1 =
            first + 2 + (earlier(a[first + 3], a[first + 2]) ? 1 : 0);
        best = earlier(a[b1], a[b0]) ? b1 : b0;
      } else if (first < n) {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (earlier(a[c], a[best])) best = c;
        }
      } else {
        break;
      }
      if (!earlier(a[best], h)) break;
      a[i] = a[best];
      i = best;
    }
    a[i] = h;
  }

  std::vector<Handle> heap_;  // 4-ary min-heap of handles
  std::vector<std::unique_ptr<Action[]>> chunks_;  // slab, by slot
  std::vector<EventId> tags_;  // by slot: the pending event's id, or kNoEvent
  std::uint32_t slab_size_ = 0;       // slots handed out so far
  std::vector<std::uint32_t> free_;   // recycled slab slots
  std::size_t cancelled_ = 0;         // cancelled handles still in heap_
  std::uint64_t next_seq_ = 1;
  bool root_vacant_ = false;  // heap_[0] is the running event's stale handle
};

}  // namespace clicsim::sim
