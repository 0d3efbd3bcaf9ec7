// A cluster node: CPU, memory bus, PCI bus, interrupt controller, kernel,
// and one or more NIC+driver pairs (several NICs enable channel bonding).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/buses.hpp"
#include "hw/cpu.hpp"
#include "hw/interrupt.hpp"
#include "hw/nic.hpp"
#include "hw/params.hpp"
#include "os/driver.hpp"
#include "os/kernel.hpp"
#include "sim/simulator.hpp"

namespace clicsim::os {

class Node {
 public:
  Node(sim::Simulator& sim, int id, hw::HostParams host, hw::PciParams pci,
       std::string name);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Adds a NIC (plus its driver) on the node's PCI bus; returns the index.
  int add_nic(hw::NicProfile profile, net::MacAddr mac);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Simulator& sim() { return *sim_; }
  [[nodiscard]] hw::Cpu& cpu() { return cpu_; }
  [[nodiscard]] hw::MemoryBus& mem() { return mem_; }
  [[nodiscard]] hw::PciBus& pci() { return pci_; }
  [[nodiscard]] Kernel& kernel() { return kernel_; }

  // Charges a kernel memcpy of `bytes` at `prio`, split into bounded chunks
  // so interrupts and DMA interleave with long copies (a single multi-MB
  // CPU work item would block the ISR and starve the memory bus, which no
  // real preemptible kernel does). `done` fires after the last chunk.
  void copy_data(sim::CpuPriority prio, std::int64_t bytes,
                 std::function<void()> done = {});

  friend class CopyChain;

  [[nodiscard]] int nic_count() const {
    return static_cast<int>(nics_.size());
  }
  [[nodiscard]] hw::Nic& nic(int i = 0) { return *nics_.at(i); }
  [[nodiscard]] Driver& driver(int i = 0) { return *drivers_.at(i); }
  [[nodiscard]] net::MacAddr mac(int i = 0) { return nic(i).mac(); }

 private:
  sim::Simulator* sim_;
  int id_;
  std::string name_;
  hw::Cpu cpu_;
  hw::MemoryBus mem_;
  hw::PciBus pci_;
  hw::InterruptController intc_;
  Kernel kernel_;
  std::vector<std::unique_ptr<hw::Nic>> nics_;
  std::vector<std::unique_ptr<Driver>> drivers_;
};

// Serializes incremental copy work for one logical transfer: bytes may be
// added as data trickles in (e.g. TCP segments filling a blocked recv), and
// the final action runs only after every queued byte has been copied.
class CopyChain {
 public:
  CopyChain(Node& node, sim::CpuPriority prio) : node_(&node), prio_(prio) {}

  void add(std::int64_t bytes) {
    queued_ += bytes;
    kick();
  }

  // Runs `done` once all copy work (queued now or still being processed)
  // completes. Call at most once.
  void finish(std::function<void()> done) {
    done_ = std::move(done);
    kick();
  }

 private:
  void kick() {
    if (copying_) return;
    if (queued_ == 0) {
      if (done_) {
        auto d = std::move(done_);
        done_ = {};
        d();
      }
      return;
    }
    copying_ = true;
    const std::int64_t chunk = queued_;
    queued_ = 0;
    node_->copy_data(prio_, chunk, [this] {
      copying_ = false;
      kick();
    });
  }

  Node* node_;
  sim::CpuPriority prio_;
  std::int64_t queued_ = 0;
  bool copying_ = false;
  std::function<void()> done_;
};

}  // namespace clicsim::os
