// Cluster-wide fault orchestration: a time-scripted + seeded-random
// campaign driver.
//
// A FaultPlan owns a set of named, toggleable fault *targets* (a link's
// carrier, a switch port, a NIC's DMA engine — anything with a fail/restore
// pair) and schedules outages against them on the owning Simulator's clock.
// Outages come from two sources that compose freely:
//
//   * scripts  — fail_between()/script_at() place exact, reviewable events
//                ("kill port 3 from 10 ms to 25 ms");
//   * campaigns — randomize() draws (target, start, duration) tuples from a
//                 named Rng stream seeded by the campaign seed, so an entire
//                 cluster-wide fault storm replays byte-identically from one
//                 integer and is independent of every other RNG consumer.
//
// Overlapping outages on one target nest (a depth counter): the target's
// restore hook runs only when the last overlapping outage ends, so hooks
// never see spurious up/down glitches. Campaign outages are clamped to end
// by Campaign::end — the bounded-failure contract the chaos soak relies on:
// after the fault window closes, every target is back up and the protocol's
// liveness obligations (resolve every confirmed send, quiesce, no orphan
// timers) become enforceable.
//
// The plan is strictly per-Simulator state: parallel sweep workers each own
// their plan, keeping PR 2's any-`-j` determinism intact. Under the shard
// engine a target may span simulators (a cross-shard link's carrier has a
// half on each side): such targets register one Part per simulator, each
// part's hooks run on its own shard's clock, and only the first part
// counts toward the plan's statistics — so a sharded campaign reports the
// same numbers as the identical single-shard campaign.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

class FaultPlan {
 public:
  using Hook = std::function<void()>;

  FaultPlan(Simulator& sim, std::uint64_t seed);

  // One simulator's slice of a target. Every part of a target receives the
  // same outage schedule (on its own simulator); part 0 is the primary —
  // it alone drives faults_fired()/active_failures().
  struct Part {
    Simulator* sim = nullptr;
    Hook fail;
    Hook restore;
    int depth = 0;  // overlapping outages currently holding this part down
  };

  // Registers a toggleable target; returns its index. `fail` puts the
  // target into its failed state, `restore` brings it back, both on the
  // plan's own simulator.
  int add_target(std::string name, Hook fail, Hook restore);

  // Multi-simulator target (sharded topologies). `parts` must be
  // non-empty; depth bookkeeping is per part, so hooks still never see
  // nested up/down glitches.
  int add_target(std::string name, std::vector<Part> parts);

  [[nodiscard]] int target_count() const {
    return static_cast<int>(targets_.size());
  }
  [[nodiscard]] const std::string& target_name(int index) const {
    return targets_.at(static_cast<std::size_t>(index)).name;
  }

  // --- Scripted faults -----------------------------------------------------

  // Schedules an arbitrary scripted action (e.g. "clear all loss at t").
  void script_at(SimTime t, Hook action);

  // Scripted action split across simulators: each piece runs at `t` on its
  // own simulator, but the set counts as ONE fired fault (the first piece
  // carries the count), mirroring what one script_at() would report.
  void script_parts(SimTime t, std::vector<std::pair<Simulator*, Hook>> parts);

  // Fails `target` over [from, to): fail hook at `from`, restore at `to`.
  void fail_between(int target, SimTime from, SimTime to);

  // --- Seeded-random campaigns --------------------------------------------

  struct Campaign {
    SimTime start = 0;
    SimTime end = seconds(1.0);
    int outages = 4;                       // random outages to schedule
    SimTime min_down = milliseconds(1.0);  // outage duration bounds
    SimTime max_down = milliseconds(20.0);
  };

  // Draws `outages` random (target, start, duration) tuples and schedules
  // them. Every outage ends by `campaign.end` (bounded failure). No-op when
  // no targets are registered.
  void randomize(const Campaign& campaign);

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] std::uint64_t outages_scheduled() const { return outages_; }
  [[nodiscard]] std::uint64_t faults_fired() const {
    return fired_.load(std::memory_order_relaxed);
  }
  // Targets currently in the failed state (0 once a campaign has healed).
  [[nodiscard]] int active_failures() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  struct Target {
    std::string name;
    std::vector<Part> parts;
  };

  void enter_failure(int target, int part);
  void leave_failure(int target, int part);

  Simulator* sim_;
  Rng rng_;
  std::vector<Target> targets_;
  std::uint64_t outages_ = 0;
  // Atomic: primary parts of different targets may fire concurrently on
  // different shard threads. The counters are only *read* after the run
  // joins (or between windows), so relaxed ordering suffices.
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<int> active_{0};
};

}  // namespace clicsim::sim
