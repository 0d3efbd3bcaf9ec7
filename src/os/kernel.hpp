// Per-node kernel services: bottom halves (softirqs), kernel timers,
// system-call cost accounting and the scheduler wake of a blocked process.
#pragma once

#include <cstdint>
#include <utility>

#include "hw/cpu.hpp"
#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
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

  // A protocol timer (retransmission, delayed ack, pacing, probe) with at
  // most one pending deadline. It empties itself before its callback runs,
  // so the callback may re-arm it. Its owner outlives a pending deadline.
  class Timer {
   public:
    explicit Timer(Kernel& kernel) : kernel_(&kernel) {}
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    [[nodiscard]] bool armed() const { return id_ != kInvalidTimer; }

    // Arms `fn` to run `delay` ns from now; a no-op while armed.
    template <typename F>
    void arm(sim::SimTime delay, F&& fn) {
      if (armed()) return;
      id_ = kernel_->add_timer(
          delay, [this, fn = std::forward<F>(fn)]() mutable {
            id_ = kInvalidTimer;
            fn();
          });
    }

    // Disarms a pending deadline, destroying its closure now.
    void cancel() {
      if (armed()) kernel_->cancel_timer(std::exchange(id_, kInvalidTimer));
    }

   private:
    Kernel* kernel_;
    TimerId id_ = kInvalidTimer;
  };

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

  // --- Scheduler wake -------------------------------------------------------
  // Wakes a process blocked in a receive: the wakeup cost at kernel
  // priority, then a context switch at user priority, then `resume` runs
  // in the woken process — the scheduler mediation CLIC deliberately keeps
  // (section 3.2(a)). Like add_timer, `resume` rides in the CPU work item
  // as it is, not wrapped in an Action, so a small one allocates nothing.
  template <typename F>
  void wake(F&& resume) {
    cpu_->run(sim::CpuPriority::kKernel, cpu_->params().process_wakeup,
              [cpu = cpu_, resume = std::forward<F>(resume)]() mutable {
                cpu->run(sim::CpuPriority::kUser,
                         cpu->params().context_switch, std::move(resume));
              });
  }

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

}  // namespace clicsim::os
