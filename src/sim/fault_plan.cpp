#include "sim/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::sim {

FaultPlan::FaultPlan(Simulator& sim, std::uint64_t seed)
    : sim_(&sim), rng_(seed, "fault-plan") {}

int FaultPlan::add_target(std::string name, Hook fail, Hook restore) {
  std::vector<Part> parts(1);
  parts[0].sim = sim_;
  parts[0].fail = std::move(fail);
  parts[0].restore = std::move(restore);
  return add_target(std::move(name), std::move(parts));
}

int FaultPlan::add_target(std::string name, std::vector<Part> parts) {
  if (parts.empty()) {
    throw std::invalid_argument("FaultPlan: target needs at least one part");
  }
  for (Part& p : parts) {
    if (p.sim == nullptr) p.sim = sim_;
    p.depth = 0;
  }
  targets_.push_back(Target{std::move(name), std::move(parts)});
  return static_cast<int>(targets_.size()) - 1;
}

void FaultPlan::script_at(SimTime t, Hook action) {
  sim_->at(t, [this, action = std::move(action)] {
    fired_.fetch_add(1, std::memory_order_relaxed);
    action();
  });
}

void FaultPlan::script_parts(SimTime t,
                             std::vector<std::pair<Simulator*, Hook>> parts) {
  bool first = true;
  for (auto& [sim, hook] : parts) {
    Simulator* s = sim != nullptr ? sim : sim_;
    s->at(t, [this, first, hook = std::move(hook)] {
      if (first) fired_.fetch_add(1, std::memory_order_relaxed);
      if (hook) hook();
    });
    first = false;
  }
}

void FaultPlan::fail_between(int target, SimTime from, SimTime to) {
  if (target < 0 || target >= target_count()) {
    throw std::invalid_argument("FaultPlan: unknown target");
  }
  if (to <= from) throw std::invalid_argument("FaultPlan: empty outage");
  ++outages_;
  // Every part gets the same schedule on its own simulator; identical
  // interval sets mean identical per-part depth transitions, so the halves
  // of a split target always agree on when they are down.
  Target& t = targets_[static_cast<std::size_t>(target)];
  for (int p = 0; p < static_cast<int>(t.parts.size()); ++p) {
    Simulator* s = t.parts[static_cast<std::size_t>(p)].sim;
    s->at(from, [this, target, p] { enter_failure(target, p); });
    s->at(to, [this, target, p] { leave_failure(target, p); });
  }
}

void FaultPlan::randomize(const Campaign& campaign) {
  if (targets_.empty() || campaign.outages <= 0) return;
  const SimTime span = campaign.end - campaign.start;
  if (span <= 0) throw std::invalid_argument("FaultPlan: empty campaign");
  const SimTime min_down = std::max<SimTime>(campaign.min_down, 1);
  const SimTime max_down = std::max<SimTime>(campaign.max_down, min_down);
  for (int i = 0; i < campaign.outages; ++i) {
    const int target = static_cast<int>(
        rng_.uniform_int(0, target_count() - 1));
    const SimTime down = rng_.uniform_int(min_down, max_down);
    // Start early enough that the outage always heals by campaign.end.
    const SimTime latest_start =
        std::max<SimTime>(campaign.end - down, campaign.start);
    const SimTime start =
        rng_.uniform_int(campaign.start, latest_start);
    const SimTime end = std::min<SimTime>(start + down, campaign.end);
    if (end <= start) continue;
    fail_between(target, start, end);
  }
}

void FaultPlan::enter_failure(int target, int part) {
  Part& p = targets_[static_cast<std::size_t>(target)]
                .parts[static_cast<std::size_t>(part)];
  if (part == 0) fired_.fetch_add(1, std::memory_order_relaxed);
  if (p.depth++ > 0) return;  // already down: outages nest
  if (part == 0) active_.fetch_add(1, std::memory_order_relaxed);
  if (p.fail) p.fail();
}

void FaultPlan::leave_failure(int target, int part) {
  Part& p = targets_[static_cast<std::size_t>(target)]
                .parts[static_cast<std::size_t>(part)];
  if (part == 0) fired_.fetch_add(1, std::memory_order_relaxed);
  if (--p.depth > 0) return;  // an overlapping outage still holds it down
  if (part == 0) active_.fetch_sub(1, std::memory_order_relaxed);
  if (p.restore) p.restore();
}

}  // namespace clicsim::sim
