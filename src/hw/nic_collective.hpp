// NIC-resident collective offload.
//
// One engine rides each NIC's firmware. The engines of a job arrange
// themselves into the same binomial tree the host-level MPI collectives
// use, but run it entirely on the cards: a child's contribution frame is
// combined and forwarded by firmware the moment it arrives off the wire —
// no host DMA, no interrupt, no kernel scheduling on the interior hops.
// The host posts one descriptor per collective and gets one completion
// callback; everything between is card-to-card traffic on a reserved
// ethertype (net::kEtherTypeCollective) that the NIC terminates inside
// the firmware (Nic::set_fw_sink), so interior ranks' CPUs never wake up.
//
// This is the "contender" bench/collective_scale races against the
// host-tree collectives: at large node counts the per-hop saving (two PCI
// crossings + interrupt + wakeup per tree level) compounds with tree
// depth, and the crossover against host trees over CLIC/TCP is the
// figure's point.
//
// Ops are keyed by (op, root, seq); every rank must issue the same
// collectives in the same order (the usual MPI contract), but frames for a
// rank's op may arrive before the local host posts it — early arrivals
// park in the op state. All inter-rank communication is frame traffic over
// links, so sharded (PDES) runs stay bit-identical to single-shard runs.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "hw/nic.hpp"
#include "net/buffer.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"

namespace clicsim::hw {

enum class CollOp : std::uint8_t { kBarrier = 0, kBcast = 1, kAllreduce = 2 };

// Wire header of a collective frame (8 bytes on the wire).
struct CollHeader {
  std::uint8_t op = 0;
  std::uint8_t phase = 0;  // 0 = up (fan-in toward root), 1 = down (fan-out)
  std::uint16_t root = 0;
  std::uint32_t seq = 0;

  // Cross-shard confinement hook (see net::Frame::detach): plain data.
  void detach_shared() {}
};
inline constexpr std::int64_t kCollHeaderBytes = 8;

// The binomial tree over ranks 0..n-1 rooted at `root`, shared by the host
// MPI collectives and the NIC engines: `rank`'s parent (-1 at the root)
// and its children, largest subtree first. A bcast sends to the children
// in that order; a reduce receives from them in reverse.
[[nodiscard]] int binomial_parent(int rank, int root, int n);
[[nodiscard]] std::vector<int> binomial_children(int rank, int root, int n);

// Firmware handling charge per originated frame (tree hop): descriptor
// decode + header build inside the card.
struct NicCollectiveParams {
  sim::SimTime fw_op_latency = sim::microseconds(2.0);
};

class NicCollectiveEngine {
 public:
  using Params = NicCollectiveParams;

  // `rank_macs[r]` is rank r's NIC MAC (rank_macs.size() == job size).
  // Registers the engine as the NIC's firmware sink for the collective
  // ethertype; the NIC must outlive the engine.
  NicCollectiveEngine(Nic& nic, int rank, std::vector<net::MacAddr> rank_macs,
                      Params params = {});

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(macs_.size()); }

  // --- Host-facing descriptors -------------------------------------------
  // Each posts one collective; `done` fires (on this NIC's simulator) when
  // the op completes at this rank. Ranks must agree on `seq` per op — a
  // per-communicator monotone counter satisfies this.

  void barrier(std::uint32_t seq, std::function<void()> done);

  // Root passes the payload (must fit one wire MTU); other ranks receive it.
  void bcast(std::uint32_t seq, int root, net::Buffer payload,
             std::function<void(net::Buffer)> done);

  // Element-wise-sum semantics, modelled as the host collectives do (the
  // combined buffer is zeros of the widest contribution); the cost model —
  // firmware combine at wire arrival, log-depth fan-in to rank 0, fan-out
  // down the same tree — is what the benchmark measures.
  void allreduce(std::uint32_t seq, net::Buffer contribution,
                 std::function<void(net::Buffer)> done);

  // --- Statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t ops_completed() const { return ops_completed_; }

 private:
  struct Op {
    bool host_posted = false;
    bool released = false;    // down phase reached this rank
    int up_seen = 0;          // child contributions arrived
    std::int64_t acc_bytes = 0;
    net::Buffer payload;      // bcast/allreduce result travelling down
    std::function<void(net::Buffer)> done;
  };

  static std::uint64_t key(CollOp op, int root, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(op) << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint16_t>(root))
            << 32) |
           seq;
  }

  void on_frame(net::Frame frame);
  void post_up(CollOp op, int root, std::uint32_t seq, net::Buffer data,
               std::function<void(net::Buffer)> done);
  void advance_up(CollOp op, int root, std::uint32_t seq, Op& op_state);
  void release(CollOp op, int root, std::uint32_t seq, Op& op_state);
  void finish(CollOp op, int root, std::uint32_t seq, Op& op_state);
  void send_frame(int dst_rank, CollOp op, std::uint8_t phase, int root,
                  std::uint32_t seq, net::Buffer payload);

  Nic* nic_;
  sim::Simulator* sim_;
  int rank_;
  std::vector<net::MacAddr> macs_;
  Params params_;
  std::unordered_map<std::uint64_t, Op> ops_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t ops_completed_ = 0;
};

}  // namespace clicsim::hw
