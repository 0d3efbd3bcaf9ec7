// Pre-wired test beds: a cluster plus one protocol stack per node, ready
// for workloads. Shared by the unit/integration tests, the benchmark
// harness and the examples.
#pragma once

#include <memory>
#include <vector>

#include "clic/api.hpp"
#include "gamma/gamma.hpp"
#include "hw/nic_collective.hpp"
#include "mpi/comm.hpp"
#include "net/buffer_pool.hpp"
#include "os/address.hpp"
#include "os/cluster.hpp"
#include "pvm/pvm.hpp"
#include "tcpip/tcp.hpp"
#include "via/via.hpp"

namespace clicsim::apps {

// Every bed owns a per-simulation packet-buffer arena. Declared first so
// it outlives everything that holds Buffers/HeaderBlobs, and installed as
// the thread-current pool for the bed's lifetime (testbeds follow a
// construct → drive → destroy discipline on one thread, so the LIFO scope
// matches the bed that is actually running). Pools are strictly
// per-simulation: parallel sweep workers never share one — and in a
// sharded bed each worker shard gets its own pool, installed as that
// worker thread's scope for the duration of the run.

// Shared chassis of the single-stack beds: pool, home simulator, shard
// group, cluster and address map. `cluster_config.shards` (clamped to
// [1, nodes + switches]) selects intra-scenario PDES; with 1 shard everything
// below is the classic single-threaded bed, bit for bit. Drive a bed
// through run()/run_until() — with shards these coordinate the whole
// group, and `sim.run()` alone would deadlock-free but silently simulate
// only shard 0.
struct BedCore {
  net::BufferPool pool;
  net::BufferPool::Scope pool_scope{&pool};
  sim::Simulator sim;
  sim::ShardGroup shards;
  std::vector<std::unique_ptr<net::BufferPool>> shard_pools;
  os::Cluster cluster;
  os::AddressMap addresses;

  explicit BedCore(os::ClusterConfig cluster_config);

  // Group-wide lifecycle; identical to the corresponding sim.* calls in a
  // single-shard bed.
  std::uint64_t run() { return shards.run(); }
  std::uint64_t run_until(sim::SimTime t) { return shards.run_until(t); }
  [[nodiscard]] bool pending() const { return shards.pending(); }
  [[nodiscard]] sim::SimTime now() const { return shards.now(); }
  [[nodiscard]] std::uint64_t events_executed() const {
    return shards.events_executed();
  }
  // The simulator that drives `node` (its clock source for scheduling
  // node-local work from the controlling thread).
  [[nodiscard]] sim::Simulator& sim_of(int node) {
    return cluster.sim_of_node(node);
  }
};

// N nodes running CLIC.
struct ClicBed : BedCore {
  std::vector<std::unique_ptr<clic::ClicModule>> modules;

  explicit ClicBed(os::ClusterConfig cluster_config = {},
                   clic::Config clic_config = {});

  [[nodiscard]] clic::ClicModule& module(int node) {
    return *modules.at(static_cast<std::size_t>(node));
  }
};

// N nodes running the TCP/IP stack.
struct TcpBed : BedCore {
  std::vector<std::unique_ptr<tcpip::IpLayer>> ip;
  std::vector<std::unique_ptr<tcpip::TcpStack>> tcp;

  explicit TcpBed(os::ClusterConfig cluster_config = {},
                  tcpip::Config tcp_config = {});
};

// N ranks of mini-MPI over CLIC (rank i == node i). With
// `nic_collectives`, each rank's NIC 0 gets a hw::NicCollectiveEngine and
// the communicators run barrier/bcast/allreduce on the cards instead of
// host trees (bench/collective_scale's offload contender).
struct MpiClicBed {
  ClicBed bed;
  std::vector<std::unique_ptr<hw::NicCollectiveEngine>> engines;
  std::vector<std::unique_ptr<mpi::ClicTransport>> transports;
  std::vector<std::unique_ptr<mpi::Communicator>> comms;

  explicit MpiClicBed(os::ClusterConfig cluster_config = {},
                      clic::Config clic_config = {},
                      mpi::Config mpi_config = {},
                      bool nic_collectives = false);

  [[nodiscard]] mpi::Communicator& comm(int rank) {
    return *comms.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] sim::Simulator& sim() { return bed.sim; }
  // The simulator that drives rank r (schedule rank-local work here; in a
  // sharded bed `sim()` alone would race the worker shards).
  [[nodiscard]] sim::Simulator& sim_of(int rank) { return bed.sim_of(rank); }
  // Group-wide lifecycle (see BedCore).
  std::uint64_t run() { return bed.run(); }
  [[nodiscard]] sim::SimTime now() const { return bed.now(); }
};

// N ranks of mini-MPI over TCP. Call connect() (and run the sim) before
// using the communicators.
struct MpiTcpBed {
  TcpBed bed;
  std::vector<std::unique_ptr<mpi::TcpTransport>> transports;
  std::vector<std::unique_ptr<mpi::Communicator>> comms;

  explicit MpiTcpBed(os::ClusterConfig cluster_config = {},
                     tcpip::Config tcp_config = {},
                     mpi::Config mpi_config = {});

  // Establishes the socket mesh; returns the future to await.
  [[nodiscard]] sim::Future<bool> connect();

  [[nodiscard]] mpi::Communicator& comm(int rank) {
    return *comms.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] sim::Simulator& sim() { return bed.sim; }
};

// N PVM tasks over TCP (tid i == node i).
struct PvmBed {
  TcpBed bed;
  std::vector<std::unique_ptr<mpi::TcpTransport>> transports;
  std::vector<std::unique_ptr<pvm::PvmTask>> tasks;

  explicit PvmBed(os::ClusterConfig cluster_config = {},
                  tcpip::Config tcp_config = {}, pvm::Config config = {});

  [[nodiscard]] sim::Future<bool> connect();
  [[nodiscard]] pvm::PvmTask& task(int tid) {
    return *tasks.at(static_cast<std::size_t>(tid));
  }
  [[nodiscard]] sim::Simulator& sim() { return bed.sim; }
};

// N nodes running GAMMA.
struct GammaBed : BedCore {
  std::vector<std::unique_ptr<gamma::GammaModule>> modules;

  explicit GammaBed(os::ClusterConfig cluster_config = {},
                    gamma::Config gamma_config = {});

  [[nodiscard]] gamma::GammaModule& module(int node) {
    return *modules.at(static_cast<std::size_t>(node));
  }
};

// N nodes running VIA (one VI per ordered node pair is up to the caller).
struct ViaBed : BedCore {
  std::vector<std::unique_ptr<via::ViaProvider>> providers;

  explicit ViaBed(os::ClusterConfig cluster_config = {},
                  via::Config via_config = {});

  [[nodiscard]] via::ViaProvider& provider(int node) {
    return *providers.at(static_cast<std::size_t>(node));
  }
};

}  // namespace clicsim::apps
