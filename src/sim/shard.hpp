// Conservative parallel discrete-event simulation within one scenario.
//
// A ShardGroup partitions a scenario across K Simulator instances (shard 0
// is the caller-owned "home" simulator; shards 1..K-1 are owned by the
// group) and runs them on K threads in lockstep barrier windows:
//
//   serial phase    inject the dirty cross-shard mailboxes, relax the
//                   published per-shard next-event times over the lookahead
//                   graph into earliest-possible-execution times
//                     E[s] = min(next_event[s], min over x (E[x] + L[x][s]))
//                   (an idle shard can be woken transitively, so its own
//                   queue head alone is not a safe send bound), then open a
//                   per-destination window: shard d may advance to
//                     W[d] = min over src of (E[src] + L[src][d])
//                   where L is the per-channel lookahead matrix filled in
//                   by declare_channel (kNever where no channel exists);
//   parallel phase  every shard executes its own events with time < W[d].
//
// L[src][d] comes from the physical link parameters: a frame sent at time t
// over a cross-shard link arrives no earlier than t + lookahead (propagation
// plus the serialization floor, see net::Link), so no event executed inside
// shard src's window can produce an effect on shard d before W[d]. Only the
// channels that actually exist constrain a shard: on a leaf-sharded fabric
// a shard is bounded by the clocks of the shards its trunks reach, not by
// the tightest node link on some other shard, and a shard with no incoming
// channel runs straight to the bound in one window — strictly wider
// windows, and strictly fewer barrier rounds, than the old single global
// min-lookahead bound. Mailboxes are only appended during the parallel
// phase and only drained in the serial phase — null-message-free
// conservative PDES.
//
// Determinism: the serial phase injects mailbox events destination-major,
// source-shard ascending, FIFO within each mailbox; the destination event
// heap breaks time ties by insertion sequence, which realizes a global
// (time, src-shard, post-order) merge rule. Window bounds are a pure
// function of simulation state (published next-event times and the declared
// matrix), never of thread scheduling, so a K-shard run is bit-identical
// to the same scenario on one shard (K == 1 delegates to the plain
// single-threaded Simulator verbatim).
//
// The serial phase is O(active): producers record the first post to a
// mailbox per window in a per-source dirty list, and the coordinator walks
// only those — never the k² (mostly never-declared) mailbox grid. Worker
// threads are spawned once, on the first multi-shard run, and persist
// across run()/run_until() calls (the chaos soak and sweep runners call
// run_bounded repeatedly; respawning K threads per call would dominate
// short runs), parked on a condition variable between runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

// Spinning generation barrier. Windows are microseconds of simulated time
// and often only a handful of events, so futex-based std::barrier wakeups
// dominate the runtime; spinning with a bounded busy phase (then yielding,
// which keeps single-core hosts live) is the right trade. The last arriver
// runs the completion function before releasing the generation.
class SpinBarrier {
 public:
  SpinBarrier(int parties, std::function<void()> completion)
      : parties_(parties), completion_(std::move(completion)) {}

  void arrive_and_wait();

 private:
  int parties_;
  std::function<void()> completion_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

class ShardGroup {
 public:
  // `home` becomes shard 0; `shards - 1` additional simulators are created
  // and owned by the group. `shards` < 1 is clamped to 1.
  ShardGroup(Simulator& home, int shards);
  ~ShardGroup();

  [[nodiscard]] int shards() const { return static_cast<int>(sims_.size()); }
  [[nodiscard]] Simulator& shard(int i) { return *sims_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const Simulator& shard(int i) const {
    return *sims_[static_cast<std::size_t>(i)];
  }

  // Registers a communication channel from shard `src` to shard `dst` whose
  // deliveries always trail the sending event by at least `lookahead` ns.
  // The (src, dst) entry of the lookahead matrix is the minimum over all
  // channels declared for that pair; shard `dst`'s window is bounded only
  // by the shards with a declared channel into it. Throws std::logic_error
  // when `lookahead` <= 0 (a zero-lookahead channel would shrink every
  // window to nothing — a silent deadlock); `what` names the offending
  // channel in the message. Posting on an undeclared channel is undefined:
  // the window algebra would not know to hold the destination back.
  void declare_channel(int src, int dst, SimTime lookahead,
                       const std::string& what);

  // Posts `action` for execution on shard `dst` at absolute time `when`.
  // Must be called from shard `src`'s worker during the parallel phase (or
  // from the controlling thread while the group is not running). `when`
  // must respect the declared lookahead of the (src, dst) channel.
  template <typename F>
  void post(int src, int dst, SimTime when, F&& action) {
    SpscMailbox& box = mailbox(src, dst);
    // First post into this box since the last drain: record it in the
    // producer's dirty list so the serial phase can find it without
    // scanning the k² grid. The list is owned by shard `src`'s thread.
    Lane& lane = lanes_[static_cast<std::size_t>(src)];
    if (box.empty()) lane.dirty_dsts.push_back(dst);
    box.post(when, std::forward<F>(action));
    ++lane.posts;
  }

  // Installs a wrapper around each shard worker's run loop, e.g. to enter
  // a per-thread buffer-pool scope. Called as wrapper(shard, body) once per
  // run; the wrapper must invoke body() exactly once. Shard 0's body runs
  // on the thread that called run(). Must be installed before the first
  // multi-shard run.
  void set_worker_wrapper(
      std::function<void(int, const std::function<void()>&)> wrapper) {
    worker_wrapper_ = std::move(wrapper);
  }

  // Lockstep execution across all shards; semantics match the Simulator
  // methods of the same name (run_until leaves every shard clock at `t`
  // unless some shard stopped). Return the number of events executed
  // across all shards by this call. With one shard these delegate to the
  // home simulator unmodified.
  std::uint64_t run() { return run_bounded(kNever); }
  std::uint64_t run_until(SimTime t) { return run_bounded(t); }
  std::uint64_t run_for(SimTime d) { return run_bounded(now() + d); }

  // Aggregate views over the shard set. Only valid while the group is not
  // running (the run-completion handshake is the happens-before edge).
  [[nodiscard]] bool pending() const;
  [[nodiscard]] SimTime now() const;  // max over shard clocks
  [[nodiscard]] std::uint64_t events_executed() const;  // sum over shards

  // Total events ever posted through the cross-shard mailboxes (monotone
  // across runs). This is the fabric's shard-boundary traffic meter: a
  // workload whose frames all stay behind their shard-local leaf switch
  // leaves it untouched. Backed by per-source counters, not a mailbox-grid
  // scan. Only valid while the group is not running.
  [[nodiscard]] std::uint64_t cross_shard_posts() const;

  // Engine instrumentation (monotone across runs; only valid while the
  // group is not running; all stay 0 with one shard, which never opens
  // windows). windows_opened() counts barrier rounds that released the
  // shards into a parallel window; barrier_waits() counts every completed
  // barrier round including the final round that raised done; drained
  // events equal cross_shard_posts() once a run has finished (every post
  // is injected exactly once).
  [[nodiscard]] std::uint64_t windows_opened() const {
    return windows_opened_;
  }
  [[nodiscard]] std::uint64_t barrier_waits() const { return barrier_waits_; }
  [[nodiscard]] std::uint64_t events_drained() const {
    return events_drained_;
  }

  // Engine-phase host time in nanoseconds (monotone across runs; only valid
  // while the group is not running; all 0 with one shard). busy_ns(s) is
  // the time shard s spent executing its windows, wait_ns(s) the time it
  // spent inside the barrier, and serial_ns() the time the serial phase
  // took between windows. The serial phase runs inside the barrier, so it
  // is part of every shard's wait. Host-clock readings: never feed them
  // into simulated results.
  [[nodiscard]] std::uint64_t busy_ns(int s) const {
    return lanes_[static_cast<std::size_t>(s)].busy_ns;
  }
  [[nodiscard]] std::uint64_t wait_ns(int s) const {
    return lanes_[static_cast<std::size_t>(s)].wait_ns;
  }
  [[nodiscard]] std::uint64_t serial_ns() const { return serial_ns_; }

 private:
  // Per-shard coordination lane, owned by that shard's worker thread during
  // a run (and by the controlling thread between runs). Cache-line aligned
  // so one worker's post bookkeeping never false-shares with another's.
  struct alignas(64) Lane {
    SimTime published_next = kNever;  // next_event_time at barrier arrival
    std::vector<int> dirty_dsts;      // mailboxes first-posted this window
    std::uint64_t posts = 0;          // total cross-shard posts by this src
    std::uint64_t busy_ns = 0;        // host time running windows
    std::uint64_t wait_ns = 0;        // host time inside the barrier
  };

  std::uint64_t run_bounded(SimTime bound);
  void serial_phase();
  void worker_loop(int shard);
  void worker_body(int shard);
  void persistent_worker(int shard);
  void start_workers();
  void record_error();

  SpscMailbox& mailbox(int src, int dst) {
    return mailboxes_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(shards()) +
                      static_cast<std::size_t>(dst)];
  }

  [[nodiscard]] SimTime lookahead(int src, int dst) const {
    return lookahead_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(shards()) +
                      static_cast<std::size_t>(dst)];
  }

  Simulator& home_;
  std::vector<std::unique_ptr<Simulator>> owned_;
  std::vector<Simulator*> sims_;
  std::vector<SpscMailbox> mailboxes_;
  std::vector<PostedEvent> drain_scratch_;

  // Per-channel lookahead matrix (k × k, kNever where undeclared) and, per
  // destination, the ascending list of source shards with a channel into
  // it — the only shards whose clocks bound that destination's window.
  std::vector<SimTime> lookahead_;
  std::vector<std::vector<int>> sources_of_;

  std::vector<Lane> lanes_;
  // Serial-phase scratch: per-destination source buckets, the list of
  // destinations touched this round, and the relaxed earliest-execution
  // times E[] the window algebra computes (kept allocated across rounds).
  std::vector<std::vector<int>> dst_buckets_;
  std::vector<int> touched_dsts_;
  std::vector<SimTime> earliest_;

  std::function<void(int, const std::function<void()>&)> worker_wrapper_;

  // Per-run coordination state. `windows_` and `done_` are written only in
  // the serial phase and read by workers after the barrier release; the
  // barrier's acquire/release pair is the happens-before edge.
  SpinBarrier barrier_;
  SimTime bound_ = kNever;
  std::vector<SimTime> windows_;
  bool done_ = false;
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  // Instrumentation (coordinator-owned; see accessors above).
  std::uint64_t windows_opened_ = 0;
  std::uint64_t barrier_waits_ = 0;
  std::uint64_t events_drained_ = 0;
  std::uint64_t serial_ns_ = 0;

  // Persistent worker pool. Threads are spawned on the first multi-shard
  // run and parked on `run_cv_` between runs; `run_seq_` increments release
  // one run, `idle_cv_` signals its completion back to the controller, and
  // the mutex hand-offs provide the happens-before edges for all the
  // single-threaded state above.
  std::vector<std::thread> threads_;
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t run_seq_ = 0;
  int running_workers_ = 0;
  bool shutdown_ = false;
};

}  // namespace clicsim::sim
