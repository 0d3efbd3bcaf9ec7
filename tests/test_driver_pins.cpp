// Golden pins on every workload driver's results: the seven ping-pong
// one-way times, both stream drivers, the open-loop RPC and streaming runs
// (with and without a fault campaign) and the chaos campaigns of both
// stacks. A change to the drivers or the adapters under them that moves
// any of these values moved a simulated result.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/chaos.hpp"
#include "apps/workloads.hpp"
#include "sim/time.hpp"

namespace clicsim {
namespace {

struct OneWayPin {
  const char* stack;
  sim::SimTime (*one_way)(const apps::Scenario&, std::int64_t);
  sim::SimTime at_0;
  sim::SimTime at_64k;
};

TEST(DriverPins, PingPongOneWayTimes) {
  const OneWayPin pins[] = {
      {"clic", apps::clic_one_way, 38178, 992268},
      {"tcp", apps::tcp_one_way, 53123, 3800056},
      {"mpi_clic", apps::mpi_clic_one_way, 38478, 1090964},
      {"mpi_tcp", apps::mpi_tcp_one_way, 55064, 3945904},
      {"pvm", apps::pvm_one_way, 100864, 5826063},
      {"gamma", apps::gamma_one_way, 16240, 967667},
      {"via", apps::via_one_way, 16850, 949250},
  };
  const apps::Scenario s;
  for (const OneWayPin& p : pins) {
    EXPECT_EQ(p.one_way(s, 0), p.at_0) << p.stack;
    EXPECT_EQ(p.one_way(s, 64 * 1024), p.at_64k) << p.stack;
  }
}

TEST(DriverPins, StreamElapsedAndReceiveInterrupts) {
  const apps::Scenario s;
  const apps::StreamStats clic = apps::clic_stream(s, 64 * 1024, 1 << 20);
  EXPECT_EQ(clic.elapsed, 14133732);
  EXPECT_EQ(clic.rx_interrupts, 128u);
  EXPECT_EQ(clic.rx_frames, 128u);
  const apps::StreamStats tcp = apps::tcp_stream(s, 1 << 20);
  EXPECT_EQ(tcp.elapsed, 39040530);
  EXPECT_EQ(tcp.rx_interrupts, 121u);
  EXPECT_EQ(tcp.rx_frames, 121u);
}

apps::RpcConfig small_rpc(std::uint64_t fault_seed) {
  apps::RpcConfig cfg;
  cfg.client_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.requests_per_client = 4;
  cfg.arrivals.rate_per_s = 2000.0;
  cfg.seed = 7;
  cfg.fault_seed = fault_seed;
  return cfg;
}

apps::StreamingConfig small_streaming(std::uint64_t fault_seed) {
  apps::StreamingConfig cfg;
  cfg.streams = 2;
  cfg.frames_per_stream = 8;
  cfg.frame_bytes = 6000;
  cfg.fragment_bytes = 1216;
  cfg.cadence = sim::milliseconds(1.0);
  cfg.deadline = sim::milliseconds(0.8);
  cfg.seed = 7;
  cfg.fault_seed = fault_seed;
  return cfg;
}

struct OpenLoopPin {
  std::uint64_t digest;
  std::uint64_t events;
};

TEST(DriverPins, OpenLoopDigestsAndEventCounts) {
  const apps::Scenario s;
  // [fault_seed]: {digest, events}
  const OpenLoopPin rpc_clic[] = {{0x7068d4b4b924be06ull, 2917},
                                  {0x9079d457c5d404e5ull, 2972}};
  const OpenLoopPin rpc_tcp[] = {{0xdaf3c5fc5d5e21e4ull, 2491},
                                 {0x2cf6436333589568ull, 2415}};
  const OpenLoopPin streaming_clic[] = {{0x7c0e96e7864434c3ull, 2864},
                                        {0x7958f51048d75263ull, 3032}};
  const OpenLoopPin streaming_tcp[] = {{0x026abe2100c34ebdull, 1894},
                                       {0x1ca800d15bbda956ull, 1840}};
  for (std::uint64_t f = 0; f < 2; ++f) {
    const apps::RpcResult a = apps::rpc_clic(s, small_rpc(f));
    EXPECT_EQ(a.digest, rpc_clic[f].digest) << "rpc_clic fault " << f;
    EXPECT_EQ(a.events, rpc_clic[f].events) << "rpc_clic fault " << f;
    const apps::RpcResult b = apps::rpc_tcp(s, small_rpc(f));
    EXPECT_EQ(b.digest, rpc_tcp[f].digest) << "rpc_tcp fault " << f;
    EXPECT_EQ(b.events, rpc_tcp[f].events) << "rpc_tcp fault " << f;
    const apps::StreamingResult c =
        apps::streaming_clic(s, small_streaming(f));
    EXPECT_EQ(c.digest, streaming_clic[f].digest) << "streaming_clic " << f;
    EXPECT_EQ(c.events, streaming_clic[f].events) << "streaming_clic " << f;
    const apps::StreamingResult d =
        apps::streaming_tcp(s, small_streaming(f));
    EXPECT_EQ(d.digest, streaming_tcp[f].digest) << "streaming_tcp " << f;
    EXPECT_EQ(d.events, streaming_tcp[f].events) << "streaming_tcp " << f;
  }
}

struct ChaosPin {
  apps::ChaosStack stack;
  bool adaptive;
  std::uint64_t seed;
  const char* summary;
};

TEST(DriverPins, ChaosSummariesAndFinishTimes) {
  const ChaosPin pins[] = {
      {apps::ChaosStack::kClic, false, 1,
       "chaos stack=clic seed=1 msgs=24 resolved=24 ok=17 failed=7 "
       "delivered=17 violations=0 quiesced=1 timers_clean=1 outages=7 "
       "fault_events=15 drops=6 bursts=6 dups=2 delayed=2 carrier=76 "
       "port_down=0 tail=0 stall=0 retx=75 timeouts=81 gave_up=6 resets=3"},
      {apps::ChaosStack::kClic, false, 2,
       "chaos stack=clic seed=2 msgs=24 resolved=24 ok=17 failed=7 "
       "delivered=17 violations=0 quiesced=1 timers_clean=1 outages=7 "
       "fault_events=15 drops=6 bursts=6 dups=2 delayed=3 carrier=78 "
       "port_down=0 tail=0 stall=0 retx=76 timeouts=82 gave_up=6 resets=3"},
      {apps::ChaosStack::kClic, true, 1,
       "chaos stack=clic seed=1 msgs=24 resolved=24 ok=17 failed=7 "
       "delivered=17 violations=0 quiesced=1 timers_clean=1 outages=7 "
       "fault_events=15 drops=6 bursts=6 dups=2 delayed=2 carrier=80 "
       "port_down=0 tail=0 stall=0 retx=79 timeouts=81 gave_up=6 resets=3 "
       "adaptive=1 rtt_samples=12 collapses=75 srtt_ns=268622 "
       "rttvar_ns=130592 win=2..3"},
      {apps::ChaosStack::kClic, true, 2,
       "chaos stack=clic seed=2 msgs=24 resolved=24 ok=17 failed=7 "
       "delivered=17 violations=0 quiesced=1 timers_clean=1 outages=7 "
       "fault_events=15 drops=6 bursts=6 dups=2 delayed=4 carrier=80 "
       "port_down=0 tail=0 stall=0 retx=78 timeouts=81 gave_up=6 resets=3 "
       "adaptive=1 rtt_samples=12 collapses=75 srtt_ns=304229 "
       "rttvar_ns=152114 win=2..3"},
      {apps::ChaosStack::kTcp, false, 1,
       "chaos stack=tcp seed=1 msgs=24 resolved=24 ok=24 failed=0 "
       "delivered=24 violations=0 quiesced=1 timers_clean=1 outages=7 "
       "fault_events=15 drops=13 bursts=13 dups=6 delayed=8 carrier=48 "
       "port_down=0 tail=0 stall=0 retx=0 timeouts=0 gave_up=0 resets=0"},
      {apps::ChaosStack::kTcp, false, 2,
       "chaos stack=tcp seed=2 msgs=24 resolved=24 ok=24 failed=0 "
       "delivered=24 violations=0 quiesced=1 timers_clean=1 outages=7 "
       "fault_events=15 drops=12 bursts=12 dups=4 delayed=7 carrier=49 "
       "port_down=0 tail=0 stall=0 retx=0 timeouts=0 gave_up=0 resets=0"},
  };
  for (const ChaosPin& p : pins) {
    apps::ChaosOptions o;
    o.stack = p.stack;
    o.adaptive = p.adaptive;
    o.seed = p.seed;
    const apps::ChaosReport r = apps::run_chaos_campaign(o);
    EXPECT_EQ(r.summary(), std::string(p.summary));
    EXPECT_EQ(r.finished_at, sim::SimTime{30'000'000'000}) << p.summary;
  }
}

}  // namespace
}  // namespace clicsim
