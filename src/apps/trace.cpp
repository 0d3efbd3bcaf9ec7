#include "apps/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "clic/header.hpp"
#include "gamma/gamma.hpp"
#include "hw/nic.hpp"
#include "tcpip/ip.hpp"
#include "tcpip/tcp.hpp"
#include "via/via.hpp"

namespace clicsim::apps {

namespace {

std::string clic_flags(std::uint8_t f) {
  std::string s;
  if (f & clic::flags::kFirstFragment) s += 'F';
  if (f & clic::flags::kLastFragment) s += 'L';
  if (f & clic::flags::kAckRequested) s += 'C';
  if (f & clic::flags::kPureAck) s += 'A';
  return s.empty() ? "-" : s;
}

const char* clic_type(clic::PacketType t) {
  switch (t) {
    case clic::PacketType::kUser:
      return "user";
    case clic::PacketType::kMpi:
      return "mpi";
    case clic::PacketType::kInternal:
      return "internal";
    case clic::PacketType::kKernelFn:
      return "kfn";
    case clic::PacketType::kRemoteWrite:
      return "rwrite";
    case clic::PacketType::kBroadcast:
      return "bcast";
  }
  return "?";
}

std::string tcp_flags(std::uint8_t f) {
  std::string s;
  if (f & tcpip::tcpflags::kSyn) s += 'S';
  if (f & tcpip::tcpflags::kFin) s += 'F';
  if (f & tcpip::tcpflags::kPsh) s += 'P';
  if (f & tcpip::tcpflags::kAck) s += '.';
  return s.empty() ? "-" : s;
}

}  // namespace

std::string describe(const net::Frame& frame) {
  std::ostringstream os;
  os << frame.src.str() << " > " << frame.dst.str() << ' ';

  if (const auto* wire = frame.header.get<clic::WireHeader>()) {
    const auto& h = wire->clic;
    os << "CLIC " << clic_type(h.type) << ' ' << int{h.src_port} << '>'
       << int{h.dst_port} << " seq " << h.seq << " ack " << h.ack
       << " flags " << clic_flags(h.flags);
    if (!wire->upper.empty()) {
      os << " +upper(" << wire->upper.wire_bytes() << "B)";
    }
  } else if (const auto* ip = frame.header.get<tcpip::Ipv4Header>()) {
    os << "IP ";
    if (const auto* tcp = ip->l4.get<tcpip::TcpHeader>()) {
      os << "TCP " << tcp->src_port << '>' << tcp->dst_port << " seq "
         << tcp->seq << " ack " << tcp->ack << " win " << tcp->window
         << " flags " << tcp_flags(tcp->flags);
    } else {
      os << "proto " << int{ip->protocol};
    }
  } else if (const auto* g = frame.header.get<gamma::GammaHeader>()) {
    os << "GAMMA port " << int{g->port} << " seq " << g->seq;
  } else if (const auto* v = frame.header.get<via::ViaHeader>()) {
    os << "VIA vi " << v->vi_id << ((v->flags & 0x4) ? " RDMA" : "");
  } else if (const auto* nf = frame.header.get<hw::NicFragHeader>()) {
    os << "NICFRAG id " << nf->id << ' ' << nf->index << '/' << nf->count;
  } else {
    os << "ethertype 0x" << std::hex << frame.ethertype << std::dec;
  }

  os << " (" << frame.payload.size() << "B payload, "
     << frame.frame_bytes() << "B frame)";
  if (!frame.fcs_ok) os << " BAD-FCS";
  return os.str();
}

void PacketTrace::tap_node_rx(os::Cluster& cluster, int node, int nic) {
  auto tap = std::make_unique<net::Tap>(
      cluster.node(node).sim(),
      "node" + std::to_string(node) + ".rx");
  tap->insert(cluster.link(node, nic), 0);
  points_.push_back(Point{tap->name(), std::move(tap)});
}

void PacketTrace::tap_node_tx(os::Cluster& cluster, int node, int nic) {
  auto tap = std::make_unique<net::Tap>(
      cluster.node(node).sim(),
      "node" + std::to_string(node) + ".tx");
  tap->insert(cluster.link(node, nic), 1);
  points_.push_back(Point{tap->name(), std::move(tap)});
}

void PacketTrace::tap_all(os::Cluster& cluster) {
  for (int i = 0; i < cluster.size(); ++i) {
    tap_node_rx(cluster, i);
    tap_node_tx(cluster, i);
  }
}

void PacketTrace::dump(std::ostream& os) const {
  struct Line {
    sim::SimTime t;
    const std::string* label;
    const net::Frame* frame;
  };
  std::vector<Line> lines;
  for (const auto& p : points_) {
    for (const auto& r : p.tap->records()) {
      lines.push_back(Line{r.time, &p.label, &r.frame});
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.t < b.t; });
  for (const auto& l : lines) {
    os << std::setw(12) << sim::to_us(l.t) << "us " << std::setw(10)
       << *l.label << "  " << describe(*l.frame) << '\n';
  }
}

std::uint64_t PacketTrace::frames_captured() const {
  std::uint64_t n = 0;
  for (const auto& p : points_) n += p.tap->frames_seen();
  return n;
}

void PacketTrace::clear() {
  for (auto& p : points_) p.tap->clear();
}

}  // namespace clicsim::apps
