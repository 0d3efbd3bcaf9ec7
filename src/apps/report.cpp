#include "apps/report.hpp"

#include <iomanip>
#include <ostream>

namespace clicsim::apps {

void report_cluster(std::ostream& os, os::Cluster& cluster) {
  os << "cluster: " << cluster.size() << " nodes, "
     << cluster.config().nics_per_node << " NIC(s)/node, t="
     << std::fixed << std::setprecision(3)
     << sim::to_ms(cluster.node(0).sim().now()) << " ms\n";
  os << std::setw(6) << "node" << std::setw(9) << "cpu%" << std::setw(9)
     << "irq%" << std::setw(9) << "soft%" << std::setw(9) << "pci%"
     << std::setw(9) << "mem%" << std::setw(10) << "tx-frm" << std::setw(10)
     << "rx-frm" << std::setw(8) << "irqs" << std::setw(8) << "drops"
     << '\n';

  for (int i = 0; i < cluster.size(); ++i) {
    auto& n = cluster.node(i);
    const auto now = n.sim().now();
    auto pct = [now](sim::SimTime busy) {
      return now > 0 ? 100.0 * static_cast<double>(busy) /
                           static_cast<double>(now)
                     : 0.0;
    };
    std::uint64_t tx = 0;
    std::uint64_t rx = 0;
    std::uint64_t irqs = 0;
    std::uint64_t drops = 0;
    for (int j = 0; j < n.nic_count(); ++j) {
      tx += n.nic(j).tx_frames();
      rx += n.nic(j).rx_frames();
      irqs += n.nic(j).interrupts_fired();
      drops += n.nic(j).rx_ring_drops() + n.nic(j).rx_bad_fcs() +
               n.nic(j).rx_oversize_drops();
    }
    os << std::setw(6) << i << std::setw(8) << std::setprecision(1)
       << n.cpu().utilization() * 100.0 << '%' << std::setw(8)
       << pct(n.cpu().busy_time(sim::CpuPriority::kInterrupt)) << '%'
       << std::setw(8) << pct(n.cpu().busy_time(sim::CpuPriority::kSoftirq))
       << '%' << std::setw(8) << n.pci().utilization() * 100.0 << '%'
       << std::setw(8) << n.mem().utilization() * 100.0 << '%'
       << std::setw(10) << tx << std::setw(10) << rx << std::setw(8) << irqs
       << std::setw(8) << drops << '\n';
  }
  os.unsetf(std::ios::fixed);
}

void report_clic(std::ostream& os, clic::ClicModule& module) {
  os << "clic@node" << module.node().id() << ": msgs tx/rx "
     << module.messages_sent() << '/' << module.messages_received()
     << ", bytes tx/rx " << module.bytes_sent() << '/'
     << module.bytes_received() << ", intra-node "
     << module.intra_node_messages() << '\n';
  for (int peer = 0; peer < 256; ++peer) {
    const clic::Channel* ch = module.channel_to(peer);
    if (ch == nullptr) continue;
    os << "  channel -> node" << peer << ": rx_next " << ch->rx_next()
       << ", in-flight " << ch->in_flight() << ", pending "
       << ch->pending() << ", retransmits " << ch->retransmits()
       << ", dups " << ch->duplicates() << ", ooo " << ch->out_of_order()
       << ", acks " << ch->acks_sent() << ", timeouts " << ch->timeouts()
       << ", backoff " << ch->backoff_level() << ", gave-up "
       << ch->gave_up() << ", resets " << ch->resets_accepted() << '\n';
    if (module.config().adaptive) {
      // Extra line per channel, only in adaptive mode — paper-mode output
      // stays byte-identical to the fixed-clock reproduction.
      os << "    adaptive: srtt " << std::fixed << std::setprecision(1)
         << sim::to_us(ch->rtt().srtt()) << " us, rttvar "
         << sim::to_us(ch->rtt().rttvar()) << " us, rto "
         << sim::to_us(ch->current_rto()) << " us, samples "
         << ch->rtt().samples() << ", cwnd " << ch->cwnd() << ", win "
         << ch->window_min() << ".." << ch->window_max() << ", collapses "
         << ch->window_collapses() << '\n';
      os.unsetf(std::ios::fixed);
    }
  }
}

}  // namespace clicsim::apps
