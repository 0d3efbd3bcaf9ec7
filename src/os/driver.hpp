// The NIC device driver.
//
// CLIC's defining constraint is that drivers are NOT modified: the driver
// here exposes exactly the stock interface (hard_start_xmit on transmit, a
// protocol-handler registry a la dev_add_pack on receive, an RX ISR that
// drains the ring into sk_buffs and defers to bottom halves). Protocols
// (CLIC, the TCP/IP stack, GAMMA) sit on top of this interface.
//
// The Figure 8b "direct dispatch" improvement — the driver calling the
// protocol module straight from the ISR, skipping sk_buff creation and the
// bottom-half hop — is available behind set_direct_dispatch(true); it is the
// one experiment that *does* modify the driver, exactly as the paper frames
// it (a projected improvement, Fig. 7b).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "hw/interrupt.hpp"
#include "hw/nic.hpp"
#include "os/kernel.hpp"
#include "os/skbuff.hpp"
#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"

namespace clicsim::os {

// Upper protocol entry point. `from_isr` distinguishes the direct-dispatch
// path (handler work must be charged at interrupt priority) from the normal
// bottom-half path (softirq priority).
class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;
  virtual void packet_received(net::Frame frame, bool from_isr) = 0;
};

class Driver {
 public:
  Driver(sim::Simulator& sim, Kernel& kernel, hw::Nic& nic,
         hw::InterruptController& intc);

  // Registers the handler for an ethertype (dev_add_pack equivalent).
  void add_protocol(std::uint16_t ethertype, ProtocolHandler* handler);

  // Transmit without internal queueing: returns false when the card's ring
  // is full — the caller decides what to do (CLIC stages the data in system
  // memory; see section 3.1). `on_done` fires when the descriptor completes
  // and the skb's memory is reusable.
  bool try_xmit(SkBuff skb, sim::Action on_done = {});

  // Transmit with driver-level queueing (the qdisc path TCP/IP uses):
  // always accepts, retries queued skbs as descriptors complete.
  void xmit_or_queue(SkBuff skb, sim::Action on_done = {});

  void set_direct_dispatch(bool enabled) { direct_dispatch_ = enabled; }

  [[nodiscard]] hw::Nic& nic() { return *nic_; }
  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t rx_no_handler() const { return rx_no_handler_; }
  [[nodiscard]] std::size_t tx_queue_depth() const { return tx_queue_.size(); }

 private:
  void rx_isr();
  void drain_one();
  void kick_tx_queue();
  bool post(SkBuff&& skb, sim::Action on_done);

  sim::Simulator* sim_;
  Kernel* kernel_;
  hw::Nic* nic_;
  hw::InterruptController* intc_;
  std::unordered_map<std::uint16_t, ProtocolHandler*> protocols_;
  bool direct_dispatch_ = false;

  // Queued skbs ride in recycled ring slots (the sk_buff freelist): the
  // qdisc path allocates nothing per frame once the ring has grown.
  struct PendingTx {
    SkBuff skb;
    sim::Action on_done;
  };
  sim::RingQueue<PendingTx> tx_queue_;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_no_handler_ = 0;
};

}  // namespace clicsim::os
