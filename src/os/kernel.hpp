// Per-node kernel services: bottom halves (softirqs), kernel timers,
// system-call cost accounting and process wait queues.
#pragma once

#include <cstdint>
#include <utility>

#include "hw/cpu.hpp"
#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/timers.hpp"

namespace clicsim::os {

class Kernel {
 public:
  Kernel(sim::Simulator& sim, hw::Cpu& cpu)
      : sim_(&sim), cpu_(&cpu), timers_(sim) {}

  // --- Bottom halves -------------------------------------------------------
  // Queues `fn` to run in softirq context: after the ISR completes, the
  // kernel pays the dispatch cost at softirq priority and invokes `fn`
  // (which charges its own processing time at softirq priority).
  void queue_bottom_half(sim::Action fn);

  [[nodiscard]] std::uint64_t bottom_halves_run() const { return bh_run_; }

  // --- Timers ---------------------------------------------------------------
  // Each timer is a plain simulator event: cancel_timer() destroys its
  // closure at once, and a cancelled timer never runs. `fn` goes into the
  // event as it is, not wrapped in an Action, so a small one allocates
  // nothing.
  using TimerId = sim::EventId;
  static constexpr TimerId kInvalidTimer = sim::kNoEvent;

  template <typename F>
  TimerId add_timer(sim::SimTime delay, F&& fn) {
    return timers_.schedule(delay, std::forward<F>(fn));
  }
  void cancel_timer(TimerId id) { timers_.cancel(id); }
  // Pending, fired and cancelled tallies of this node's timers.
  [[nodiscard]] const sim::Timers& timer_wheel() const { return timers_; }

  // --- System calls ----------------------------------------------------------
  // Charges the kernel-entry cost (INT 80h path) at kernel priority, then
  // runs `body` in kernel context. The matching exit cost is charged by
  // syscall_return.
  void syscall(sim::Action body);
  void syscall_return(sim::Action back_in_user = {});

  // Lightweight system call (GAMMA-style): reduced entry cost and no
  // scheduler involvement on return.
  void light_syscall(sim::Action body);

  [[nodiscard]] std::uint64_t syscalls() const { return syscalls_; }

  [[nodiscard]] hw::Cpu& cpu() { return *cpu_; }
  [[nodiscard]] sim::Simulator& sim() { return *sim_; }

 private:
  void run_bottom_halves();

  sim::Simulator* sim_;
  hw::Cpu* cpu_;
  sim::Timers timers_;
  sim::RingQueue<sim::Action> bh_queue_;  // recycled slots, no deque churn
  bool bh_scheduled_ = false;
  std::uint64_t bh_run_ = 0;
  std::uint64_t syscalls_ = 0;
};

// A queue of blocked simulated processes. Waking charges the wakeup cost in
// kernel context plus a context switch before the woken coroutine resumes —
// the scheduler mediation CLIC deliberately keeps (section 3.2(a)).
class WaitQueue {
 public:
  WaitQueue(sim::Simulator& sim, hw::Cpu& cpu)
      : sim_(&sim), cpu_(&cpu), trigger_(sim) {}

  // co_await sleep(): parks the calling coroutine until woken.
  [[nodiscard]] sim::Trigger::Awaiter sleep() { return trigger_.wait(); }

  // Wakes every sleeper: wakeup cost at kernel priority, then a context
  // switch, then the coroutines resume.
  void wake_all();

  [[nodiscard]] std::size_t sleepers() const {
    return trigger_.waiter_count();
  }

 private:
  sim::Simulator* sim_;
  hw::Cpu* cpu_;
  sim::Trigger trigger_;
};

}  // namespace clicsim::os
