#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace clicsim::sim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// t + d without wrapping past kNever (t may be kNever itself).
inline SimTime saturating_add(SimTime t, SimTime d) {
  return (t > kNever - d) ? kNever : t + d;
}

using HostClock = std::chrono::steady_clock;

inline std::uint64_t elapsed_ns(HostClock::time_point from,
                                HostClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

void SpinBarrier::arrive_and_wait() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    completion_();
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  } else {
    // Bounded busy-wait, then yield: on an oversubscribed (or single-core)
    // host the last arriver may be descheduled, and pure spinning would
    // stall the whole group for a timeslice.
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins < 1024) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
}

ShardGroup::ShardGroup(Simulator& home, int shards)
    : home_(home), barrier_(std::max(shards, 1), [this] {
        const HostClock::time_point start = HostClock::now();
        serial_phase();  // never throws: failures go to record_error()
        serial_ns_ += elapsed_ns(start, HostClock::now());
      }) {
  const int k = std::max(shards, 1);
  sims_.reserve(static_cast<std::size_t>(k));
  sims_.push_back(&home_);
  owned_.reserve(static_cast<std::size_t>(k - 1));
  for (int i = 1; i < k; ++i) {
    owned_.push_back(std::make_unique<Simulator>());
    sims_.push_back(owned_.back().get());
  }
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  mailboxes_.resize(kk);
  lookahead_.assign(kk, kNever);
  sources_of_.resize(static_cast<std::size_t>(k));
  lanes_ = std::vector<Lane>(static_cast<std::size_t>(k));
  dst_buckets_.resize(static_cast<std::size_t>(k));
  earliest_.assign(static_cast<std::size_t>(k), kNever);
  windows_.assign(static_cast<std::size_t>(k), 0);
}

ShardGroup::~ShardGroup() {
  if (threads_.empty()) return;
  {
    const std::scoped_lock lock(run_mu_);
    shutdown_ = true;
  }
  run_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardGroup::declare_channel(int src, int dst, SimTime lookahead,
                                 const std::string& what) {
  if (src == dst) return;  // intra-shard: no window constraint
  if (lookahead <= 0) {
    std::ostringstream msg;
    msg << "ShardGroup::declare_channel: cross-shard channel " << what
        << " (shard " << src << " -> " << dst << ") has non-positive "
        << "lookahead " << lookahead
        << " ns; propagation + serialization floor must be > 0 or the "
        << "conservative window collapses";
    throw std::logic_error(msg.str());
  }
  SimTime& cell = lookahead_[static_cast<std::size_t>(src) *
                                 static_cast<std::size_t>(shards()) +
                             static_cast<std::size_t>(dst)];
  if (cell == kNever) {
    // First channel for this (src, dst) pair: src now bounds dst's window.
    auto& sources = sources_of_[static_cast<std::size_t>(dst)];
    sources.insert(std::lower_bound(sources.begin(), sources.end(), src),
                   src);
  }
  cell = std::min(cell, lookahead);
}

bool ShardGroup::pending() const {
  for (const Simulator* s : sims_) {
    if (s->pending()) return true;
  }
  // Undrained mailbox traffic: every post is injected exactly once, so the
  // grid holds events iff the monotone counters disagree — no k² walk.
  std::uint64_t posts = 0;
  for (const Lane& lane : lanes_) posts += lane.posts;
  return posts != events_drained_;
}

SimTime ShardGroup::now() const {
  SimTime t = 0;
  for (const Simulator* s : sims_) t = std::max(t, s->now());
  return t;
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t n = 0;
  for (const Simulator* s : sims_) n += s->events_executed();
  return n;
}

std::uint64_t ShardGroup::cross_shard_posts() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.posts;
  return n;
}

void ShardGroup::record_error() {
  const std::scoped_lock lock(error_mu_);
  if (!first_error_) first_error_ = std::current_exception();
  failed_.store(true, std::memory_order_release);
}

// Runs between windows on whichever thread reached the barrier last; all
// shard state is quiescent (happens-before via the barrier).
void ShardGroup::serial_phase() {
  try {
    ++barrier_waits_;
    const int k = shards();

    // Inject the dirty mailboxes first — even when stopping — so pending()
    // and the destination queues are accurate at exit. The per-source
    // dirty lists are merged into per-destination buckets and walked
    // destination-major, source ascending, FIFO within a mailbox: with the
    // event heap's insertion-seq tie-break this is the (time, src-shard,
    // post-order) merge rule. Work is proportional to the mailboxes that
    // were actually posted to, not to the k² grid.
    for (int src = 0; src < k; ++src) {
      Lane& lane = lanes_[static_cast<std::size_t>(src)];
      for (const int dst : lane.dirty_dsts) {
        auto& bucket = dst_buckets_[static_cast<std::size_t>(dst)];
        if (bucket.empty()) touched_dsts_.push_back(dst);
        bucket.push_back(src);  // src ascends: outer loop order
      }
      lane.dirty_dsts.clear();
    }
    std::sort(touched_dsts_.begin(), touched_dsts_.end());
    for (const int dst : touched_dsts_) {
      Simulator& dst_sim = *sims_[static_cast<std::size_t>(dst)];
      SimTime earliest = kNever;
      auto& bucket = dst_buckets_[static_cast<std::size_t>(dst)];
      for (const int src : bucket) {
        mailbox(src, dst).drain_into(drain_scratch_);
        for (PostedEvent& ev : drain_scratch_) {
          earliest = std::min(earliest, ev.when);
          dst_sim.at(ev.when, std::move(ev.action));
          ++events_drained_;
        }
        drain_scratch_.clear();
      }
      bucket.clear();
      // The injections may precede the time the worker published before
      // arriving; fold them in so the window algebra below sees the true
      // head of the destination's queue without re-peeking the heap.
      Lane& lane = lanes_[static_cast<std::size_t>(dst)];
      lane.published_next = std::min(lane.published_next, earliest);
    }
    touched_dsts_.clear();

    if (failed_.load(std::memory_order_acquire)) {
      done_ = true;
      return;
    }
    for (const Simulator* s : sims_) {
      if (s->stop_requested()) {
        done_ = true;
        return;
      }
    }

    SimTime t_min = kNever;
    for (const Lane& lane : lanes_) {
      t_min = std::min(t_min, lane.published_next);
    }
    if (t_min == kNever || (bound_ != kNever && t_min > bound_)) {
      done_ = true;
      return;
    }

    // Per-destination window bounds. A shard's own published next-event
    // time is not a safe lower bound on when it might *send*: an idle shard
    // (published kNever) can be woken transitively — x posts into s, whose
    // handler posts into d at a time far behind d's clock if d was allowed
    // to run ahead. So first relax the published times over the lookahead
    // graph to the earliest instant each shard could possibly execute
    // *anything*, including chains of future injections:
    //   E[s] = min(next_event[s], min over x (E[x] + L[x][s])).
    // Every declared lookahead is > 0, so a cycle can never lower E and
    // Bellman-Ford converges in <= k passes over the declared edges. Then
    //   W[d] = min over src of (E[src] + L[src][d])
    // clamped to the run bound; a destination no channel chain can reach
    // runs to the bound in one window. Progress: the globally earliest
    // shard m has E[m] = t_min and every L > 0, so W[m] > t_min and m
    // executes its head event. Determinism: E and W depend only on
    // published next-event times and the declared matrix — a pure function
    // of simulation state, never of thread scheduling.
    ++windows_opened_;
    for (int s = 0; s < k; ++s) {
      earliest_[static_cast<std::size_t>(s)] =
          lanes_[static_cast<std::size_t>(s)].published_next;
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int dst = 0; dst < k; ++dst) {
        SimTime& e = earliest_[static_cast<std::size_t>(dst)];
        for (const int src : sources_of_[static_cast<std::size_t>(dst)]) {
          const SimTime cand = saturating_add(
              earliest_[static_cast<std::size_t>(src)], lookahead(src, dst));
          if (cand < e) {
            e = cand;
            changed = true;
          }
        }
      }
    }
    for (int dst = 0; dst < k; ++dst) {
      SimTime w = kNever;
      for (const int src : sources_of_[static_cast<std::size_t>(dst)]) {
        w = std::min(w, saturating_add(earliest_[static_cast<std::size_t>(src)],
                                       lookahead(src, dst)));
      }
      if (bound_ != kNever && (w == kNever || w > bound_ + 1)) {
        w = bound_ + 1;
      }
      windows_[static_cast<std::size_t>(dst)] = w;
    }
  } catch (...) {
    record_error();
    done_ = true;
  }
}

void ShardGroup::worker_loop(int shard) {
  Simulator& sim = *sims_[static_cast<std::size_t>(shard)];
  Lane& lane = lanes_[static_cast<std::size_t>(shard)];
  // Two clock reads per window: one on leaving the barrier, one on
  // arriving at the next, so busy and wait time tile the whole loop.
  HostClock::time_point arrived = HostClock::now();
  for (;;) {
    // Publish the head of this shard's queue for the coordinator's window
    // algebra; the barrier's release is the happens-before edge.
    lane.published_next = sim.next_event_time();
    barrier_.arrive_and_wait();
    const HostClock::time_point released = HostClock::now();
    lane.wait_ns += elapsed_ns(arrived, released);
    if (done_) break;
    try {
      sim.run_before(windows_[static_cast<std::size_t>(shard)]);
    } catch (...) {
      record_error();
      // Keep arriving at barriers so the group can agree to stop; the
      // serial phase sees failed_ and raises done_.
    }
    arrived = HostClock::now();
    lane.busy_ns += elapsed_ns(released, arrived);
  }
}

void ShardGroup::worker_body(int shard) {
  if (worker_wrapper_) {
    worker_wrapper_(shard, [this, shard] { worker_loop(shard); });
  } else {
    worker_loop(shard);
  }
}

void ShardGroup::persistent_worker(int shard) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(run_mu_);
      run_cv_.wait(lock, [&] { return shutdown_ || run_seq_ > seen; });
      if (shutdown_) return;
      seen = run_seq_;
    }
    worker_body(shard);
    {
      const std::scoped_lock lock(run_mu_);
      if (--running_workers_ == 0) idle_cv_.notify_all();
    }
  }
}

void ShardGroup::start_workers() {
  threads_.reserve(static_cast<std::size_t>(shards() - 1));
  for (int i = 1; i < shards(); ++i) {
    threads_.emplace_back([this, i] { persistent_worker(i); });
  }
}

std::uint64_t ShardGroup::run_bounded(SimTime bound) {
  if (shards() == 1) {
    return bound == kNever ? home_.run() : home_.run_until(bound);
  }

  const std::uint64_t before = events_executed();
  for (Simulator* s : sims_) s->clear_stop();
  bound_ = bound;
  done_ = false;
  failed_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;

  // Release the (lazily spawned, persistent) workers into this run; the
  // mutexed run_seq_ bump publishes all the state written above.
  if (threads_.empty()) start_workers();
  {
    const std::scoped_lock lock(run_mu_);
    running_workers_ = shards() - 1;
    ++run_seq_;
  }
  run_cv_.notify_all();

  worker_body(0);  // shard 0 runs on the calling thread

  {
    std::unique_lock<std::mutex> lock(run_mu_);
    idle_cv_.wait(lock, [&] { return running_workers_ == 0; });
  }

  if (first_error_) std::rethrow_exception(first_error_);

  // Match the single-Simulator clock at exit: a bounded run that ends
  // quiet leaves every shard at the bound (as run_until does), and an
  // unbounded run leaves every shard at the time of the globally last
  // executed event (as run does). Without the latter, a shard that went
  // idle early keeps a stale clock and anything derived from its sim's
  // now() — resource utilization above all — diverges from --shards 1.
  bool any_stop = false;
  for (const Simulator* s : sims_) any_stop |= s->stop_requested();
  if (!any_stop) {
    SimTime final_clock = bound;
    if (final_clock == kNever) {
      final_clock = 0;
      for (const Simulator* s : sims_) {
        final_clock = std::max(final_clock, s->now());
      }
    }
    for (Simulator* s : sims_) s->advance_now(final_clock);
  }
  return events_executed() - before;
}

}  // namespace clicsim::sim
