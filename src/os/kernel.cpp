#include "os/kernel.hpp"

#include <utility>

namespace clicsim::os {

void Kernel::queue_bottom_half(sim::Action fn) {
  bh_queue_.push_back(std::move(fn));
  if (!bh_scheduled_) {
    bh_scheduled_ = true;
    cpu_->run(sim::CpuPriority::kSoftirq,
              cpu_->params().bottom_half_dispatch, [this] {
                run_bottom_halves();
              });
  }
}

void Kernel::run_bottom_halves() {
  if (bh_queue_.empty()) {
    bh_scheduled_ = false;
    return;
  }
  auto fn = std::move(bh_queue_.front());
  bh_queue_.pop_front();
  ++bh_run_;
  fn();
  // Chain the next item through the CPU so softirq work stays serialized
  // behind whatever processing `fn` charged.
  cpu_->run(sim::CpuPriority::kSoftirq, 0, [this] { run_bottom_halves(); });
}

void Kernel::syscall(sim::Action body) {
  ++syscalls_;
  cpu_->run(sim::CpuPriority::kKernel, cpu_->params().syscall_enter,
            std::move(body));
}

void Kernel::syscall_return(sim::Action back_in_user) {
  cpu_->run(sim::CpuPriority::kKernel, cpu_->params().syscall_exit,
            std::move(back_in_user));
}

void Kernel::light_syscall(sim::Action body) {
  ++syscalls_;
  // GAMMA-style: roughly a third of the full trap cost, no scheduler pass.
  cpu_->run(sim::CpuPriority::kKernel, cpu_->params().syscall_enter / 3,
            std::move(body));
}

}  // namespace clicsim::os
