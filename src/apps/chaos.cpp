#include "apps/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "apps/adapters.hpp"
#include "sim/task.hpp"

namespace clicsim::apps {

namespace {

// Probabilistic link misbehaviour while the fault window is open. The
// values are deliberately hostile: half the frames die inside a burst,
// and a few percent of survivors are duplicated or shoved out of order.
constexpr double kGeGoodToBad = 0.05;
constexpr double kGeBadToGood = 0.30;
constexpr double kGeLossGood = 0.001;
constexpr double kGeLossBad = 0.50;
constexpr double kDupProbability = 0.02;
constexpr double kDelayProbability = 0.05;
constexpr sim::SimTime kDelayJitter = sim::microseconds(100.0);

// Per-message bookkeeping; the vectors owning these never reallocate
// while coroutines hold pointers into them.
struct MessageState {
  bool resolved = false;
  bool ok = false;
  int delivered = 0;    // intact deliveries observed
  bool corrupt = false;  // a delivery whose payload did not match
};

void configure_link_faults(os::Cluster& cluster, std::uint64_t seed) {
  int stream = 0;
  auto arm = [&](net::FaultInjector& f) {
    // One independent stream per link direction, all derived from the
    // campaign seed so the whole storm replays from one integer.
    f.set_seed(seed * 1000003u + static_cast<std::uint64_t>(stream++));
    f.set_gilbert_elliott(kGeGoodToBad, kGeBadToGood, kGeLossGood,
                          kGeLossBad);
    f.set_duplicate_probability(kDupProbability);
    f.set_delay(kDelayProbability, kDelayJitter);
  };
  for (int i = 0; i < cluster.size(); ++i) {
    for (int j = 0; j < cluster.config().nics_per_node; ++j) {
      for (int d = 0; d < 2; ++d) arm(cluster.link(i, j).faults(d));
    }
  }
  // Trunk streams draw after every node-link stream, so the star's streams
  // (which have no trunks) are untouched by this loop existing.
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    for (int d = 0; d < 2; ++d) arm(cluster.trunk_link(t).faults(d));
  }
}

void clear_one_injector(net::FaultInjector& f) {
  f.clear_gilbert_elliott();
  f.set_drop_probability(0.0);
  f.set_corrupt_probability(0.0);
  f.set_duplicate_probability(0.0);
  f.set_delay(0.0, 0);
}

// Heals every link injector at `when`. A direction's injector lives on the
// sending end's shard, so the clears are split into scripted pieces per
// owning simulator: one per node-bearing switch for the switch ends of its
// own node links (switch 0 first — it carries the fired-fault count), one
// per node for the node ends, one per trunk end. In a single-shard run
// every piece lands on the same simulator and the effect (and the plan's
// telemetry) is exactly the historical single clear-all event.
void schedule_clear_link_faults(sim::FaultPlan& plan, os::Cluster& cluster,
                                sim::SimTime when) {
  std::vector<std::pair<sim::Simulator*, sim::FaultPlan::Hook>> parts;
  for (int s = 0; s < cluster.topology().leaves(); ++s) {
    parts.emplace_back(&cluster.sim_of_switch(s), [&cluster, s] {
      for (int i = 0; i < cluster.size(); ++i) {
        if (cluster.topology().leaf_of_node(i) != s) continue;
        for (int j = 0; j < cluster.config().nics_per_node; ++j) {
          clear_one_injector(cluster.link(i, j).faults(1));
        }
      }
    });
  }
  for (int i = 0; i < cluster.size(); ++i) {
    parts.emplace_back(&cluster.sim_of_node(i), [&cluster, i] {
      for (int j = 0; j < cluster.config().nics_per_node; ++j) {
        clear_one_injector(cluster.link(i, j).faults(0));
      }
    });
  }
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    net::Link* link = &cluster.trunk_link(t);
    for (int d = 0; d < 2; ++d) {
      parts.emplace_back(&link->end_sim(d),
                         [link, d] { clear_one_injector(link->faults(d)); });
    }
  }
  plan.script_parts(when, std::move(parts));
}

// The hard partition: one seed-chosen node loses its carrier for longer
// than the CLIC channel's full retry budget (~1.4 s at the default
// rto/backoff/cap/max_retries), still healing well inside the default
// fault window. Sends in flight to or from it must fail *cleanly* (bounded
// failure), and the peer must resynchronize when it comes back.
constexpr sim::SimTime kPartitionStart = sim::milliseconds(200.0);
constexpr sim::SimTime kPartitionEnd = sim::milliseconds(2400.0);

void schedule_hard_partition(sim::FaultPlan& plan, os::Cluster& cluster,
                             std::uint64_t seed) {
  const int victim = static_cast<int>(seed % static_cast<std::uint64_t>(
                                                 cluster.size()));
  const std::string name = "carrier " + cluster.link(victim, 0).name();
  for (int t = 0; t < plan.target_count(); ++t) {
    if (plan.target_name(t) == name) {
      plan.fail_between(t, kPartitionStart, kPartitionEnd);
      return;
    }
  }
}

// The whole storm of one campaign: every flappable element as a target,
// the links' misbehaviour and its clear at the window's close, the hard
// partition, and the seeded random outages.
void arm_fault_plan(sim::FaultPlan& plan, os::Cluster& cluster,
                    const ChaosOptions& o) {
  register_cluster_targets(plan, cluster);
  configure_link_faults(cluster, o.seed);
  schedule_clear_link_faults(plan, cluster, o.fault_window);
  schedule_hard_partition(plan, cluster, o.seed);

  sim::FaultPlan::Campaign campaign;
  campaign.start = sim::milliseconds(1.0);
  campaign.end = o.fault_window;
  campaign.outages = o.outages;
  plan.randomize(campaign);
}

// Destination for message m: round-robin source, hopping offset so every
// ordered pair eventually appears.
int chaos_src(int m, int nodes) { return m % nodes; }
int chaos_dst(int m, int nodes) {
  const int offset = 1 + (m / nodes) % (std::max(nodes - 1, 1));
  return (chaos_src(m, nodes) + offset) % nodes;
}

// One seeded pattern per message, so a receiver can check the content.
std::vector<net::Buffer> chaos_payloads(const ChaosOptions& o) {
  std::vector<net::Buffer> payloads;
  payloads.reserve(static_cast<std::size_t>(o.messages));
  for (int m = 0; m < o.messages; ++m) {
    payloads.push_back(net::Buffer::pattern(
        o.bytes, o.seed ^ (static_cast<std::uint64_t>(m) * 0x9e3779b9u)));
  }
  return payloads;
}

// Launch time of message m. Three of four messages stagger across the
// fault window — some hit a healthy cluster, some start mid-outage, some
// straddle a heal. Every fourth goes out after the window closes and
// revisits the channels and peers the storm broke: they must recover
// (CLIC channels that gave up resynchronize with kReset) and deliver.
sim::SimTime chaos_start(int m, const ChaosOptions& o) {
  const bool late = m >= (3 * o.messages) / 4;
  return late ? o.fault_window +
                    sim::milliseconds(10.0) * static_cast<sim::SimTime>(1 + m)
              : (o.fault_window * static_cast<sim::SimTime>(m)) /
                    static_cast<sim::SimTime>(std::max(2 * o.messages, 1));
}

os::ClusterConfig chaos_cluster(const ChaosOptions& o) {
  os::ClusterConfig cc;
  cc.nodes = o.nodes;
  cc.shards = o.shards;
  cc.topology = o.topology;
  return cc;
}

void collect_fault_telemetry(ChaosReport& r, os::Cluster& cluster) {
  auto tally = [&r](net::Link& link) {
    for (int d = 0; d < 2; ++d) {
      r.link_drops += link.faults(d).dropped();
      r.link_burst_drops += link.faults(d).burst_drops();
      r.link_duplicates += link.faults(d).duplicated();
      r.link_delayed += link.faults(d).delayed();
    }
    r.carrier_drops += link.carrier_drops();
  };
  for (int i = 0; i < cluster.size(); ++i) {
    for (int j = 0; j < cluster.config().nics_per_node; ++j) {
      tally(cluster.link(i, j));
      r.nic_stall_drops += cluster.node(i).nic(j).stall_drops();
    }
  }
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    tally(cluster.trunk_link(t));
  }
  for (int s = 0; s < cluster.switch_count(); ++s) {
    r.switch_port_drops += cluster.switch_at(s).port_down_drops();
    r.switch_tail_drops += cluster.switch_at(s).dropped();
  }
}

bool timers_clean(os::Cluster& cluster) {
  for (int i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).kernel().timer_wheel().size() != 0) return false;
  }
  return true;
}

void finalize_invariants(ChaosReport& r,
                         const std::vector<MessageState>& states) {
  for (const MessageState& st : states) {
    if (st.resolved) ++r.resolved;
    if (st.resolved && st.ok) ++r.succeeded;
    if (st.resolved && !st.ok) ++r.failed;
    r.delivered += st.delivered;
    // ok ⇒ delivered exactly once. failed ⇒ at most once (the data may
    // have landed with only the acks black-holed). Corrupt or duplicate
    // deliveries are violations outright.
    if (st.corrupt) ++r.invariant_violations;
    if (st.resolved && st.ok && st.delivered != 1) ++r.invariant_violations;
    if (st.resolved && !st.ok && st.delivered > 1) ++r.invariant_violations;
    if (!st.resolved) ++r.invariant_violations;  // hung send
  }
}

// Whether a send resolved as delivered: CLIC's confirmed send says so; a
// TCP send resolves once its bytes are queued on a live connection.
bool sent_ok(const clic::SendStatus& status) { return status.ok; }
bool sent_ok(std::int64_t /*queued*/) { return true; }

// One message's two sides: the sender opens its End and sends, the
// receiver checks what arrives against the expected pattern.
template <typename End>
sim::Task chaos_tx(End end, net::Buffer data, MessageState* st) {
  const bool up = co_await end.open();
  bool ok = up;
  if (up) {
    const auto status = co_await end.send(std::move(data));
    ok = sent_ok(status);
  }
  end.close();
  st->resolved = true;
  st->ok = ok;
}

template <typename End>
sim::Task chaos_rx(End end, net::Buffer expect, MessageState* st) {
  (void)co_await end.open();
  const auto got = co_await end.recv(expect.size());
  const net::Buffer& data = payload(got);
  if (data.size() == expect.size() && data.content_equals(expect)) {
    ++st->delivered;
  } else {
    st->corrupt = true;
  }
  end.close();
}

// The campaign driver: arms the storm, launches message m's receiver
// (`stack.rx`, which also opens the message's slot) and its sender
// (`stack.tx`, made on the source's clock at the start time), runs to the
// deadline and reports: `stack.report` first adds what only its stack
// sees.
template <typename Stack>
ChaosReport campaign(const ChaosOptions& o, BedCore& bed, Stack stack) {
  sim::FaultPlan plan(bed.sim, o.seed);
  arm_fault_plan(plan, bed.cluster, o);

  std::vector<MessageState> states(static_cast<std::size_t>(o.messages));
  const std::vector<net::Buffer> payloads = chaos_payloads(o);
  for (int m = 0; m < o.messages; ++m) {
    const int src = chaos_src(m, o.nodes);
    const int dst = chaos_dst(m, o.nodes);
    MessageState* st = &states[static_cast<std::size_t>(m)];
    // Each capture gets its own detached payload copy (made here, on the
    // controlling thread): the tx copy travels to the source shard, the rx
    // copy to the destination shard, and the shared pattern block in
    // `payloads` is never touched off-thread.
    bed.sim_of(src).at(
        chaos_start(m, o),
        [stack, m, src, dst, st,
         data = payloads[static_cast<std::size_t>(m)].detached()]() mutable {
          chaos_tx(stack.tx(m, src, dst), std::move(data), st);
        });
    chaos_rx(stack.rx(m, src, dst),
             payloads[static_cast<std::size_t>(m)].detached(), st);
  }

  bed.run_until(o.deadline);

  ChaosReport r{.stack = o.stack, .seed = o.seed, .messages = o.messages};
  stack.report(o, states, r);
  finalize_invariants(r, states);
  r.quiesced = !bed.pending();
  r.timers_clean = timers_clean(bed.cluster);
  r.outages_scheduled = plan.outages_scheduled();
  r.fault_events = plan.faults_fired();
  r.finished_at = bed.now();
  collect_fault_telemetry(r, bed.cluster);
  return r;
}

// CLIC: one port per message keeps delivery accounting per message: a
// second arrival on a port whose receiver already completed is a
// duplicate and shows up through poll().
struct ClicCampaign {
  ClicBed* bed;

  ClicEnd tx(int m, int src, int dst) const {
    return {{}, &bed->module(src), 10 + m, dst, 10 + m,
            clic::SendMode::kConfirmed};
  }
  ClicEnd rx(int m, int src, int dst) const {
    bed->module(dst).bind_port(10 + m);
    bed->module(src).bind_port(10 + m);
    return {{}, &bed->module(dst), 10 + m, src, 10 + m};
  }

  // Counts the duplicates still queued on the ports, then the channels'
  // degradation and, in adaptive mode, the estimator's telemetry.
  void report(const ChaosOptions& o, std::vector<MessageState>& states,
              ChaosReport& r) const {
    for (int m = 0; m < o.messages; ++m) {
      if (bed->module(chaos_dst(m, o.nodes)).poll(10 + m)) {
        ++states[static_cast<std::size_t>(m)].delivered;
      }
    }
    const int n = bed->cluster.size();
    for (int i = 0; i < n; ++i) {
      for (int peer = 0; peer < n; ++peer) {
        const clic::Channel* ch = bed->module(i).channel_to(peer);
        if (ch == nullptr) continue;
        r.retransmits += ch->retransmits();
        r.timeouts += ch->timeouts();
        r.gave_up += ch->gave_up();
        r.resets_accepted += ch->resets_accepted();
      }
    }
    r.adaptive = o.adaptive;
    if (!o.adaptive) return;
    for (int i = 0; i < n; ++i) {
      r.adaptive_stats.merge(bed->module(i).adaptive_stats());
    }
  }
};

// TCP: one connection per message, to a port of its own.
struct TcpCampaign {
  TcpBed* bed;

  TcpDial tx(int m, int src, int dst) const {
    return {{{}, &bed->tcp[static_cast<std::size_t>(src)]->create_socket()},
            dst,
            5000 + m};
  }
  TcpAccept rx(int m, int, int dst) const {
    tcpip::TcpStack* stack = bed->tcp[static_cast<std::size_t>(dst)].get();
    stack->listen(5000 + m);
    return {{}, stack, 5000 + m};
  }
  static void report(const ChaosOptions&, std::vector<MessageState>&,
                     ChaosReport&) {}
};

}  // namespace

void register_cluster_targets(sim::FaultPlan& plan, os::Cluster& cluster) {
  // Each carrier half flips on the simulator that owns its sending end,
  // switch side first (the primary part, which telemetry counts). Two parts
  // at every shard count keep the engine's event total shard-invariant.
  auto add_carrier = [&plan](net::Link* link) {
    std::vector<sim::FaultPlan::Part> parts(2);
    for (int p = 0; p < 2; ++p) {
      const int end = 1 - p;
      parts[p].sim = &link->end_sim(end);
      parts[p].fail = [link, end] { link->set_carrier_up_from(end, false); };
      parts[p].restore = [link, end] { link->set_carrier_up_from(end, true); };
    }
    plan.add_target("carrier " + link->name(), std::move(parts));
  };
  for (int i = 0; i < cluster.size(); ++i) {
    for (int j = 0; j < cluster.config().nics_per_node; ++j) {
      add_carrier(&cluster.link(i, j));
      hw::Nic* nic = &cluster.node(i).nic(j);
      std::vector<sim::FaultPlan::Part> stall(1);
      stall[0].sim = &cluster.sim_of_node(i);
      stall[0].fail = [nic] { nic->set_stalled(true); };
      stall[0].restore = [nic] { nic->set_stalled(false); };
      plan.add_target(
          "nic-stall n" + std::to_string(i) + "." + std::to_string(j),
          std::move(stall));
    }
  }
  // Inter-switch trunks: a spine uplink dying mid-collective is the
  // cross-tier outage the fabric chaos rows exercise.
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    add_carrier(&cluster.trunk_link(t));
  }
  for (int s = 0; s < cluster.switch_count(); ++s) {
    net::Switch* sw = &cluster.switch_at(s);
    sim::Simulator* owner = &cluster.sim_of_switch(s);
    // The star keeps its historical bare "swport <p>" names; multi-switch
    // fabrics qualify them with the stable plan name.
    const std::string prefix =
        cluster.switch_count() == 1
            ? std::string("swport ")
            : "swport " + cluster.topology().switch_name(s) + ".";
    for (int p = 0; p < sw->ports(); ++p) {
      std::vector<sim::FaultPlan::Part> part(1);
      part[0].sim = owner;
      part[0].fail = [sw, p] { sw->set_port_up(p, false); };
      part[0].restore = [sw, p] { sw->set_port_up(p, true); };
      plan.add_target(prefix + std::to_string(p), std::move(part));
    }
  }
}

bool ChaosReport::liveness_ok() const {
  return resolved == messages && invariant_violations == 0 && quiesced &&
         timers_clean;
}

std::string ChaosReport::summary() const {
  std::ostringstream os;
  os << "chaos stack=" << (stack == ChaosStack::kClic ? "clic" : "tcp")
     << " seed=" << seed << " msgs=" << messages << " resolved=" << resolved
     << " ok=" << succeeded << " failed=" << failed
     << " delivered=" << delivered << " violations=" << invariant_violations
     << " quiesced=" << (quiesced ? 1 : 0)
     << " timers_clean=" << (timers_clean ? 1 : 0)
     << " outages=" << outages_scheduled << " fault_events=" << fault_events
     << " drops=" << link_drops << " bursts=" << link_burst_drops
     << " dups=" << link_duplicates << " delayed=" << link_delayed
     << " carrier=" << carrier_drops << " port_down=" << switch_port_drops
     << " tail=" << switch_tail_drops << " stall=" << nic_stall_drops
     << " retx=" << retransmits << " timeouts=" << timeouts
     << " gave_up=" << gave_up << " resets=" << resets_accepted;
  if (adaptive) {
    // Appended only for adaptive campaigns: the non-adaptive digest stays
    // byte-identical to the fixed-clock harness.
    const auto& a = adaptive_stats;
    os << " adaptive=1 rtt_samples=" << a.rtt_samples
       << " collapses=" << a.window_collapses << " srtt_ns=" << a.srtt_max
       << " rttvar_ns=" << a.rttvar_max << " win=" << a.window_min << ".."
       << a.window_max;
  }
  return os.str();
}

ChaosReport run_chaos_campaign(const ChaosOptions& options) {
  ChaosOptions o = options;
  o.nodes = std::max(o.nodes, 2);
  o.messages = std::clamp(o.messages, 1, 200);
  if (o.stack == ChaosStack::kTcp) {
    TcpBed bed(chaos_cluster(o));
    return campaign(o, bed, TcpCampaign{&bed});
  }
  clic::Config clc;
  clc.seed = o.seed;
  // Desynchronize retransmission across channels that black-hole together;
  // jitter is off by default to keep the figure baselines bit-identical.
  clc.rto_jitter = 0.25;
  clc.adaptive = o.adaptive;
  ClicBed bed(chaos_cluster(o), clc);
  return campaign(o, bed, ClicCampaign{&bed});
}

}  // namespace clicsim::apps
