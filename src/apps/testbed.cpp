#include "apps/testbed.hpp"

#include <algorithm>
#include <utility>

namespace clicsim::apps {

namespace {

// More shards than simulation objects (nodes plus however many switches
// the topology builds — a fat-tree's spines occupy shards too) would leave
// workers idle; fewer than 1 is meaningless. Clamping (rather than
// throwing) lets callers pass nproc. For the legacy single star this is
// the old [1, nodes + 1] bound.
int clamped_shards(const os::ClusterConfig& c) {
  return std::clamp(c.shards, 1,
                    c.nodes + c.topology.switch_count(c.nodes));
}

os::ClusterConfig with_clamped_shards(os::ClusterConfig c) {
  c.shards = clamped_shards(c);
  return c;
}

}  // namespace

BedCore::BedCore(os::ClusterConfig cluster_config)
    : shards(sim, clamped_shards(cluster_config)),
      cluster(shards, with_clamped_shards(std::move(cluster_config))),
      addresses(os::AddressMap::for_cluster(cluster)) {
  // Worker shards 1..K-1 each get their own buffer pool, installed as the
  // worker thread's scope for the run; shard 0 executes on the controlling
  // thread under the bed's main pool scope. Frames crossing shards are
  // detached (net::Frame::detach), so no pooled block is ever shared.
  for (int i = 1; i < shards.shards(); ++i) {
    shard_pools.push_back(std::make_unique<net::BufferPool>());
  }
  if (shards.shards() > 1) {
    shards.set_worker_wrapper(
        [this](int shard, const std::function<void()>& body) {
          if (shard == 0) {
            body();
            return;
          }
          net::BufferPool::Scope scope(
              shard_pools[static_cast<std::size_t>(shard - 1)].get());
          body();
        });
  }
}

ClicBed::ClicBed(os::ClusterConfig cluster_config, clic::Config clic_config)
    : BedCore(std::move(cluster_config)) {
  for (int i = 0; i < cluster.size(); ++i) {
    modules.push_back(std::make_unique<clic::ClicModule>(
        cluster.node(i), clic_config, addresses));
  }
}

TcpBed::TcpBed(os::ClusterConfig cluster_config, tcpip::Config tcp_config)
    : BedCore(std::move(cluster_config)) {
  for (int i = 0; i < cluster.size(); ++i) {
    ip.push_back(std::make_unique<tcpip::IpLayer>(cluster.node(i),
                                                  tcp_config, addresses));
    tcp.push_back(std::make_unique<tcpip::TcpStack>(*ip.back(), tcp_config));
  }
}

MpiClicBed::MpiClicBed(os::ClusterConfig cluster_config,
                       clic::Config clic_config, mpi::Config mpi_config,
                       bool nic_collectives)
    // Honours cluster_config.shards: every cross-rank byte moves through a
    // CLIC send/broadcast, i.e. over links that detach frames at shard
    // boundaries, and each rank's coroutines run on its own node's
    // simulator — so the PDES thread-confinement argument holds. Drive
    // rank r's coroutines from sim_of(r), as with any sharded bed. (The
    // same holds with NIC offload: engines only exchange frames.)
    : bed(std::move(cluster_config), clic_config) {
  const int n = bed.cluster.size();
  std::vector<net::MacAddr> macs;
  if (nic_collectives) {
    macs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) macs.push_back(os::Cluster::mac_of(i, 0));
  }
  for (int i = 0; i < n; ++i) {
    if (nic_collectives) {
      engines.push_back(std::make_unique<hw::NicCollectiveEngine>(
          bed.cluster.node(i).nic(0), i, macs));
      mpi_config.nic_collective = engines.back().get();
    }
    transports.push_back(
        std::make_unique<mpi::ClicTransport>(bed.module(i), i, n));
    comms.push_back(
        std::make_unique<mpi::Communicator>(*transports.back(), mpi_config));
  }
}

MpiTcpBed::MpiTcpBed(os::ClusterConfig cluster_config,
                     tcpip::Config tcp_config, mpi::Config mpi_config)
    // TCP-transported beds pin shards = 1: TcpTransport delivers envelopes
    // by writing into the peer transport's queues directly (no link hop to
    // detach at), so rank state is not thread-confined.
    : bed((cluster_config.shards = 1, std::move(cluster_config)),
          tcp_config) {
  const int n = bed.cluster.size();
  for (int i = 0; i < n; ++i) {
    transports.push_back(
        std::make_unique<mpi::TcpTransport>(*bed.tcp[i], i, n));
    comms.push_back(
        std::make_unique<mpi::Communicator>(*transports.back(), mpi_config));
  }
}

sim::Future<bool> MpiTcpBed::connect() {
  return mpi::connect_tcp_mesh(transports);
}

PvmBed::PvmBed(os::ClusterConfig cluster_config, tcpip::Config tcp_config,
               pvm::Config config)
    : bed((cluster_config.shards = 1, std::move(cluster_config)), tcp_config) {
  const int n = bed.cluster.size();
  for (int i = 0; i < n; ++i) {
    transports.push_back(
        std::make_unique<mpi::TcpTransport>(*bed.tcp[i], i, n, 7600));
    tasks.push_back(std::make_unique<pvm::PvmTask>(*transports.back(), config));
  }
}

sim::Future<bool> PvmBed::connect() {
  return mpi::connect_tcp_mesh(transports);
}

GammaBed::GammaBed(os::ClusterConfig cluster_config,
                   gamma::Config gamma_config)
    : BedCore(std::move(cluster_config)) {
  for (int i = 0; i < cluster.size(); ++i) {
    modules.push_back(std::make_unique<gamma::GammaModule>(
        cluster.node(i), gamma_config, addresses));
  }
}

ViaBed::ViaBed(os::ClusterConfig cluster_config, via::Config via_config)
    : BedCore(std::move(cluster_config)) {
  for (int i = 0; i < cluster.size(); ++i) {
    providers.push_back(std::make_unique<via::ViaProvider>(
        cluster.node(i), via_config, addresses));
  }
}

}  // namespace clicsim::apps
