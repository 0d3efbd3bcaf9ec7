// Memory bus and PCI bus models, and the DMA engine that couples them.
//
// MemoryBus is the shared bandwidth pool DMA data and CPU copy traffic flow
// through; it is what makes TCP/IP's extra copies expensive beyond their
// CPU time (the paper's section 2 argument). CPU copies post their traffic
// (2 bytes of bus traffic per byte copied) fire-and-forget; DMA transfers
// wait for both the PCI transaction and their memory traffic, so heavy copy
// pressure slows DMA — the direction of coupling that matters for the
// reproduced results.
#pragma once

#include <cstdint>
#include <string>

#include "hw/params.hpp"
#include "sim/inline_function.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::hw {

class MemoryBus {
 public:
  MemoryBus(sim::Simulator& sim, const HostParams& params, std::string name)
      : bytes_per_s_(params.mem_bus_bytes_per_s),
        res_(sim, std::move(name)) {}

  // Occupies the bus for `bytes` of raw traffic; optional completion.
  sim::SimTime traffic(std::int64_t bytes, sim::Action done = {}) {
    return res_.submit(sim::transfer_time(bytes, bytes_per_s_),
                       std::move(done));
  }

  // Bus pressure of a CPU copy: every copied byte is read and written.
  void copy_pressure(std::int64_t bytes) { traffic(2 * bytes); }

  // Bus pressure of a CPU checksum pass: every byte is read once.
  void checksum_pressure(std::int64_t bytes) { traffic(bytes); }

  [[nodiscard]] double utilization() const { return res_.utilization(); }
  [[nodiscard]] sim::SimTime busy_time() const { return res_.busy_time(); }

 private:
  double bytes_per_s_;
  sim::FifoResource res_;
};

class PciBus {
 public:
  PciBus(sim::Simulator& sim, PciParams params, std::string name)
      : params_(params), res_(sim, std::move(name)) {}

  // Bus occupancy of one transaction moving `bytes` at `efficiency` of peak.
  [[nodiscard]] sim::SimTime transaction_time(std::int64_t bytes,
                                              double efficiency) const {
    return sim::transfer_time(bytes,
                              params_.peak_bytes_per_s() * efficiency);
  }

  // Queues a bus transaction; `done` fires when it completes.
  void transfer(sim::SimTime occupancy, sim::Action done = {}) {
    res_.submit(occupancy, std::move(done));
  }

  // Queues occupancy only; returns the completion time.
  sim::SimTime occupy(sim::SimTime occupancy) {
    return res_.submit(occupancy);
  }

  [[nodiscard]] const PciParams& params() const { return params_; }
  [[nodiscard]] double utilization() const { return res_.utilization(); }
  [[nodiscard]] sim::SimTime busy_time() const { return res_.busy_time(); }
  [[nodiscard]] std::uint64_t transactions() const { return res_.uses(); }

 private:
  PciParams params_;
  sim::FifoResource res_;
};

// Bus-master DMA engine of one NIC: moves data between host memory and the
// card across the shared PCI bus, touching the memory bus for every byte.
class DmaEngine {
 public:
  DmaEngine(sim::Simulator& sim, PciBus& pci, MemoryBus& mem,
            const NicProfile& profile)
      : sim_(&sim), pci_(&pci), mem_(&mem), profile_(&profile) {}

  // Transfers `bytes` described by `fragments` scatter/gather elements.
  // `done` fires when both the PCI transaction and the memory traffic have
  // completed.
  //
  // `overlap_credit` models transfers that proceed concurrently with
  // another pipeline stage (a receiving card DMAs the frame to host memory
  // while it is still arriving off the wire): the busses stay occupied for
  // the full durations, but completion is advanced by up to `credit`.
  void transfer(std::int64_t bytes, int fragments, sim::Action done,
                sim::SimTime overlap_credit = 0);

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::int64_t bytes_moved() const { return bytes_; }

 private:
  sim::Simulator* sim_;
  PciBus* pci_;
  MemoryBus* mem_;
  const NicProfile* profile_;
  std::uint64_t transfers_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace clicsim::hw
