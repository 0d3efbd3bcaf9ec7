// Counted timers: each timer is a plain cancellable Simulator event.
//
// Protocol timers (retransmission, delayed acks, pacing) are mostly
// cancelled before they expire. Simulator::cancel destroys a cancelled
// timer's closure at once and the event never runs, so this class only
// adds the tallies a node's kernel reports: pending, fired and cancelled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

class Timers {
 public:
  explicit Timers(Simulator& sim) : sim_(&sim) {}
  Timers(const Timers&) = delete;
  Timers& operator=(const Timers&) = delete;

  // Arms `fn` to fire `delay` ns from now (delay >= 0). The counting
  // closure holds the caller's callable itself: wrapping an Action instead
  // would nest one InlineFunction in another and spill to the heap.
  template <typename F>
  EventId schedule(SimTime delay, F&& fn) {
    const EventId id =
        sim_->after(delay, [this, fn = std::forward<F>(fn)]() mutable {
          --pending_;
          ++fired_;
          fn();
        });
    ++pending_;  // after: scheduling into the past throws
    return id;
  }

  // Disarms a pending timer, destroying its closure now. Returns false when
  // the timer already fired, is firing or was already cancelled.
  bool cancel(EventId id) {
    if (!sim_->cancel(id)) return false;
    --pending_;
    ++cancelled_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return pending_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

 private:
  Simulator* sim_;
  std::size_t pending_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace clicsim::sim
