// Unit tests for the OS substrate: kernel services, drivers, chunked
// copies, nodes and cluster wiring.
#include <gtest/gtest.h>

#include "clic/module.hpp"
#include "os/address.hpp"
#include "os/cluster.hpp"
#include "os/driver.hpp"
#include "os/kernel.hpp"
#include "os/node.hpp"
#include "sim/inline_function.hpp"
#include "sim/task.hpp"

namespace clicsim::os {
namespace {

struct NodeRig {
  sim::Simulator sim;
  Node node{sim, 0, hw::HostParams{}, hw::PciParams{}, "n0"};
};

// --- Kernel ------------------------------------------------------------------------

TEST(Kernel, BottomHalvesRunInOrderAfterDispatchCost) {
  NodeRig rig;
  std::vector<int> order;
  rig.node.kernel().queue_bottom_half([&] { order.push_back(1); });
  rig.node.kernel().queue_bottom_half([&] { order.push_back(2); });
  rig.sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rig.node.kernel().bottom_halves_run(), 2u);
  EXPECT_GE(rig.node.cpu().busy_time(sim::CpuPriority::kSoftirq),
            rig.node.cpu().params().bottom_half_dispatch);
}

TEST(Kernel, TimersFireAndCancel) {
  NodeRig rig;
  int fired = 0;
  rig.node.kernel().add_timer(100, [&] { ++fired; });
  auto id = rig.node.kernel().add_timer(200, [&] { ++fired; });
  rig.node.kernel().cancel_timer(id);
  rig.sim.run();
  EXPECT_EQ(fired, 1);
}

// A cancelled timer leaves nothing behind: the run ends on the event that
// cancelled it, and only that event is counted.
TEST(Kernel, CancelledTimerNeverMovesTheClock) {
  NodeRig rig;
  Kernel& k = rig.node.kernel();
  const Kernel::TimerId id = k.add_timer(100, [] { ADD_FAILURE(); });
  rig.sim.at(10, [&] { k.cancel_timer(id); });
  rig.sim.run();
  EXPECT_EQ(rig.sim.now(), 10);
  EXPECT_EQ(rig.sim.events_executed(), 1u);
  EXPECT_EQ(k.timer_wheel().cancelled(), 1u);
  EXPECT_EQ(k.timer_wheel().size(), 0u);
}

// Arming stores the caller's closure inline in the event slab: no timer,
// fired or cancelled, costs a heap allocation.
TEST(Kernel, TimersArmAndCancelWithoutHeapAllocation) {
  NodeRig rig;
  Kernel& k = rig.node.kernel();
  std::int64_t sum = 0;
  const std::uint64_t before = sim::inline_function_heap_allocs();
  for (int i = 0; i < 10000; ++i) {
    const Kernel::TimerId id = k.add_timer(1000 + i, [&sum, i] { sum += i; });
    if (i % 4 != 0) k.cancel_timer(id);
  }
  rig.sim.run();
  EXPECT_EQ(sim::inline_function_heap_allocs(), before);
  EXPECT_EQ(k.timer_wheel().cancelled(), 7500u);
  EXPECT_EQ(k.timer_wheel().fired(), 2500u);
  EXPECT_EQ(sum, 4 * (2499 * 2500 / 2));  // the multiples of 4 fired
  EXPECT_EQ(rig.sim.events_executed(), 2500u);
}

TEST(Kernel, SyscallChargesKernelEntry) {
  NodeRig rig;
  bool in_kernel = false;
  rig.node.kernel().syscall([&] { in_kernel = true; });
  rig.sim.run();
  EXPECT_TRUE(in_kernel);
  EXPECT_EQ(rig.node.kernel().syscalls(), 1u);
  EXPECT_GE(rig.node.cpu().busy_time(sim::CpuPriority::kKernel),
            rig.node.cpu().params().syscall_enter);
}

TEST(Kernel, LightSyscallIsCheaper) {
  NodeRig a;
  a.node.kernel().syscall([] {});
  a.sim.run();
  NodeRig b;
  b.node.kernel().light_syscall([] {});
  b.sim.run();
  EXPECT_LT(b.node.cpu().busy_time(), a.node.cpu().busy_time());
}

// The scheduler wake: the wakeup cost at kernel priority, then a context
// switch at user priority, then the woken process runs.
TEST(Kernel, WakeChargesSchedulerPath) {
  NodeRig rig;
  sim::SimTime woke_at = -1;
  rig.sim.after(1000, [&] {
    rig.node.kernel().wake([&] { woke_at = rig.sim.now(); });
  });
  rig.sim.run();
  const auto& p = rig.node.cpu().params();
  EXPECT_EQ(woke_at, 1000 + p.process_wakeup + p.context_switch);
  EXPECT_EQ(rig.node.cpu().busy_time(sim::CpuPriority::kKernel),
            p.process_wakeup);
  EXPECT_EQ(rig.node.cpu().busy_time(sim::CpuPriority::kUser),
            p.context_switch);
}

// CLIC wakes a blocked receiver with a [future, message] closure; it rides
// in the CPU work items inline, with no heap fallback.
TEST(Kernel, WakeKeepsAClicSizedClosureInline) {
  NodeRig rig;
  sim::Future<clic::Message> future(rig.sim);
  clic::Message message;
  message.data = net::Buffer::zeros(100);
  std::int64_t received = -1;
  struct Run {
    static sim::Task rx(sim::Future<clic::Message> f, std::int64_t* out) {
      clic::Message m = co_await f;
      *out = m.data.size();
    }
  };
  Run::rx(future, &received);
  const std::uint64_t before = sim::inline_function_heap_allocs();
  rig.node.kernel().wake([future, message = std::move(message)]() mutable {
    future.set(std::move(message));
  });
  rig.sim.run();
  EXPECT_EQ(sim::inline_function_heap_allocs(), before);
  EXPECT_EQ(received, 100);
}

// --- copy_data / CopyChain ------------------------------------------------------------

TEST(Node, CopyDataChargesCorrectTotalTime) {
  NodeRig rig;
  sim::SimTime done = -1;
  rig.node.copy_data(sim::CpuPriority::kKernel, 1 << 20,
                     [&] { done = rig.sim.now(); });
  rig.sim.run();
  const auto expect = sim::transfer_time(
      1 << 20, rig.node.cpu().params().cpu_copy_bytes_per_s);
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(expect),
              static_cast<double>(expect) * 0.01);
}

TEST(Node, CopyDataChunksAllowInterruptPreemption) {
  NodeRig rig;
  // Start a large copy, then raise interrupt-priority work: it must run
  // long before the copy completes (between chunks).
  sim::SimTime copy_done = -1;
  sim::SimTime isr_done = -1;
  rig.node.copy_data(sim::CpuPriority::kUser, 4 << 20,
                     [&] { copy_done = rig.sim.now(); });
  rig.sim.after(1000, [&] {
    rig.node.cpu().run(sim::CpuPriority::kInterrupt, 100,
                       [&] { isr_done = rig.sim.now(); });
  });
  rig.sim.run();
  EXPECT_GT(copy_done, 0);
  EXPECT_LT(isr_done, copy_done / 4);
}

TEST(CopyChain, FinishRunsAfterAllQueuedWork) {
  NodeRig rig;
  CopyChain chain(rig.node, sim::CpuPriority::kKernel);
  sim::SimTime finished = -1;
  chain.add(100000);
  chain.add(100000);
  chain.finish([&] { finished = rig.sim.now(); });
  chain.add(100000);  // added after finish was requested: still counted
  rig.sim.run();
  const auto expect = sim::transfer_time(
      300000, rig.node.cpu().params().cpu_copy_bytes_per_s);
  EXPECT_GE(finished, expect - 10);
}

TEST(CopyChain, FinishWithNoWorkRunsImmediately) {
  NodeRig rig;
  CopyChain chain(rig.node, sim::CpuPriority::kKernel);
  bool ran = false;
  chain.finish([&] { ran = true; });
  EXPECT_TRUE(ran);
}

// --- Driver ------------------------------------------------------------------------

struct DriverRig {
  sim::Simulator sim;
  Node a{sim, 0, hw::HostParams{}, hw::PciParams{}, "a"};
  Node b{sim, 1, hw::HostParams{}, hw::PciParams{}, "b"};
  net::Link link{sim, net::LinkParams{}, "wire"};

  DriverRig() {
    a.add_nic(hw::NicProfile{}, net::MacAddr::node(0));
    b.add_nic(hw::NicProfile{}, net::MacAddr::node(1));
    a.nic(0).attach_link(link, 0);
    b.nic(0).attach_link(link, 1);
  }

  SkBuff skb(std::int64_t size) {
    SkBuff s;
    s.dst = b.mac(0);
    s.src = a.mac(0);
    s.ethertype = 0x7777;
    s.payload = net::Buffer::zeros(size);
    return s;
  }
};

struct CountingHandler : ProtocolHandler {
  int packets = 0;
  bool last_from_isr = false;
  void packet_received(net::Frame, bool from_isr) override {
    ++packets;
    last_from_isr = from_isr;
  }
};

TEST(Driver, DeliversToRegisteredProtocolViaBottomHalf) {
  DriverRig rig;
  CountingHandler handler;
  rig.b.driver(0).add_protocol(0x7777, &handler);
  EXPECT_TRUE(rig.a.driver(0).try_xmit(rig.skb(500)));
  rig.sim.run();
  EXPECT_EQ(handler.packets, 1);
  EXPECT_FALSE(handler.last_from_isr);
  EXPECT_EQ(rig.b.driver(0).rx_packets(), 1u);
}

TEST(Driver, DirectDispatchRunsFromIsr) {
  DriverRig rig;
  CountingHandler handler;
  rig.b.driver(0).add_protocol(0x7777, &handler);
  rig.b.driver(0).set_direct_dispatch(true);
  EXPECT_TRUE(rig.a.driver(0).try_xmit(rig.skb(500)));
  rig.sim.run();
  EXPECT_EQ(handler.packets, 1);
  EXPECT_TRUE(handler.last_from_isr);
}

TEST(Driver, CountsPacketsWithNoHandler) {
  DriverRig rig;
  EXPECT_TRUE(rig.a.driver(0).try_xmit(rig.skb(500)));
  rig.sim.run();
  EXPECT_EQ(rig.b.driver(0).rx_no_handler(), 1u);
}

TEST(Driver, XmitOrQueueSurvivesRingPressure) {
  DriverRig rig;
  CountingHandler handler;
  rig.b.driver(0).add_protocol(0x7777, &handler);
  const int n = rig.a.nic(0).profile().tx_ring * 3;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    rig.a.driver(0).xmit_or_queue(rig.skb(2000), [&] { ++done; });
  }
  rig.sim.run();
  EXPECT_EQ(done, n);
  EXPECT_EQ(handler.packets, n);
  EXPECT_EQ(rig.a.driver(0).tx_queue_depth(), 0u);
}

TEST(Driver, TryXmitReportsRingFull) {
  DriverRig rig;
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    if (rig.a.driver(0).try_xmit(rig.skb(9000))) ++accepted;
  }
  EXPECT_EQ(accepted, rig.a.nic(0).profile().tx_ring);
}

// --- Cluster / AddressMap --------------------------------------------------------------

TEST(Cluster, WiresNodesThroughTheSwitch) {
  sim::Simulator sim;
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.nics_per_node = 2;
  Cluster cluster(sim, cfg);
  EXPECT_EQ(cluster.size(), 4);
  EXPECT_EQ(cluster.ethernet_switch().ports(), 8);
  EXPECT_EQ(cluster.node(2).nic_count(), 2);
  EXPECT_TRUE(cluster.node(3).mac(1) == Cluster::mac_of(3, 1));
  // Static learning: every mac already known to the switch.
  EXPECT_EQ(cluster.ethernet_switch().learned_port(Cluster::mac_of(3, 1)),
            7);
}

TEST(Cluster, SetMtuAllApplies) {
  sim::Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  cluster.set_mtu_all(1500);
  EXPECT_EQ(cluster.node(0).nic(0).mtu(), 1500);
  EXPECT_EQ(cluster.node(1).nic(0).mtu(), 1500);
}

TEST(AddressMap, ResolvesBothDirections) {
  sim::Simulator sim;
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(sim, cfg);
  auto map = AddressMap::for_cluster(cluster);
  EXPECT_EQ(map.node_of(Cluster::mac_of(2)), 2);
  EXPECT_TRUE(map.macs_of(1)[0] == Cluster::mac_of(1));
  EXPECT_FALSE(map.knows(net::MacAddr::node(99)));
  EXPECT_THROW((void)map.node_of(net::MacAddr::node(99)), std::out_of_range);
}

}  // namespace
}  // namespace clicsim::os
