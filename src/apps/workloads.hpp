// Measurement workloads reproducing the paper's benchmarks.
//
// The figure curves are single-message-outstanding ("NetPIPE-style")
// bandwidths: a warmed-up ping-pong of `size`-byte messages; bandwidth is
// size / (round-trip / 2). Streaming drivers (windowed, many messages in
// flight) feed the CPU-utilization and interrupt-rate studies.
//
// Every driver builds a fresh simulated cluster from a Scenario so sweep
// points are independent and deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/jitter_buffer.hpp"
#include "apps/testbed.hpp"
#include "sim/stats.hpp"

namespace clicsim::apps {

// The paper's CLIC retransmits on a fixed RTO clock, forever; the figure
// reproductions pin that schedule exactly (sender-CPU saturation during
// large transfers can stall ack processing past the RTO, so the clock is
// part of the measured curves). The hardened bounded-failure policy —
// geometric backoff, retry budget, reset resync (DESIGN.md §4f) — stays
// the library default and is what the chaos campaigns exercise.
[[nodiscard]] inline clic::Config paper_clic_config() {
  clic::Config c;
  c.rto_backoff = 1.0;         // fixed retransmission clock
  c.max_retries = 1 << 30;     // never give up
  return c;
}

// The repaired stack (DESIGN.md §4k): same never-give-up reliability as
// paper_clic_config, but the fixed clock is replaced by the measured-RTT
// estimator and the full window by a slow-start/AIMD congestion window.
// This is the "clic-a" column in bench/traffic_tail --adaptive.
[[nodiscard]] inline clic::Config adaptive_clic_config() {
  clic::Config c = paper_clic_config();
  c.adaptive = true;
  return c;
}

struct Scenario {
  os::ClusterConfig cluster;  // includes the NIC profile
  std::int64_t mtu = 9000;
  clic::Config clic = paper_clic_config();
  tcpip::Config tcp;
  mpi::Config mpi;
  pvm::Config pvm;
  gamma::Config gamma;
  via::Config via;
  int pingpong_reps = 5;
};

[[nodiscard]] double to_mbps(std::int64_t size, sim::SimTime one_way);

// --- One-way times (ping-pong, warmed up) -----------------------------------
[[nodiscard]] sim::SimTime clic_one_way(const Scenario& s, std::int64_t size);
[[nodiscard]] sim::SimTime tcp_one_way(const Scenario& s, std::int64_t size);
[[nodiscard]] sim::SimTime mpi_clic_one_way(const Scenario& s,
                                            std::int64_t size);
[[nodiscard]] sim::SimTime mpi_tcp_one_way(const Scenario& s,
                                           std::int64_t size);
[[nodiscard]] sim::SimTime pvm_one_way(const Scenario& s, std::int64_t size);
[[nodiscard]] sim::SimTime gamma_one_way(const Scenario& s,
                                         std::int64_t size);
[[nodiscard]] sim::SimTime via_one_way(const Scenario& s, std::int64_t size);

// --- Streaming (windowed) ------------------------------------------------------
struct StreamStats {
  std::int64_t bytes = 0;
  sim::SimTime elapsed = 0;
  double mbps = 0.0;
  double tx_cpu = 0.0;  // sender CPU utilization
  double rx_cpu = 0.0;  // receiver CPU utilization
  std::uint64_t rx_interrupts = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_ring_drops = 0;
};

[[nodiscard]] StreamStats clic_stream(const Scenario& s,
                                      std::int64_t message_size,
                                      std::int64_t total_bytes);
// The same stream on a bed the caller built (and may read afterwards).
[[nodiscard]] StreamStats clic_stream(ClicBed& bed, std::int64_t message_size,
                                      std::int64_t total_bytes);
[[nodiscard]] StreamStats tcp_stream(const Scenario& s,
                                     std::int64_t total_bytes);

// --- Open-loop traffic (tail-latency telemetry; DESIGN.md §4j) --------------
//
// Unlike the closed-loop drivers above, these workloads schedule request
// arrivals from per-client seeded Rng streams *before* the run: a slow
// response never throttles the offered load, so queueing delay shows up in
// the tail instead of silently shrinking the workload (coordinated
// omission). Latency is measured from the scheduled arrival to the
// response (RPC) or frame completion (streaming), and recorded in
// HdrHistograms merged in client/stream index order — results are
// byte-identical at any sweep -j and any --shards.

struct ArrivalSpec {
  enum class Process {
    kPoisson,  // memoryless arrivals at rate_per_s
    kBursty,   // Poisson at rate_per_s during exponential ON periods,
               // silent during exponential OFF periods
    kIncast,   // every client fires in lockstep once per incast_period
  };
  Process process = Process::kPoisson;
  double rate_per_s = 1000.0;  // per-client rate while eligible
  double on_mean_s = 0.002;    // kBursty: mean ON duration
  double off_mean_s = 0.004;   // kBursty: mean OFF duration
  sim::SimTime incast_period = sim::milliseconds(1.0);
  sim::SimTime start = sim::microseconds(100.0);  // first eligible instant
};

// The absolute, strictly increasing arrival times of `client`'s `count`
// requests: a pure function of (spec, seed, client), computable on any
// shard without coordination.
[[nodiscard]] std::vector<sim::SimTime> arrival_times(const ArrivalSpec& spec,
                                                      int count,
                                                      std::uint64_t seed,
                                                      int client);

struct RpcConfig {
  int client_nodes = 4;       // nodes 1..client_nodes; node 0 is the server
  int clients_per_node = 8;   // logical clients multiplexed per node
  int requests_per_client = 25;
  std::int64_t request_bytes = 128;    // >= 16 (wire header)
  std::int64_t response_bytes = 1024;  // >= 16 (wire header)
  ArrivalSpec arrivals;
  std::uint64_t seed = 1;
  // Nonzero: a seeded FaultPlan burst-loss campaign (random carrier/port/
  // DMA outages, all healed by 10 ms) runs under the workload.
  std::uint64_t fault_seed = 0;
};

struct RpcResult {
  sim::HdrHistogram latency;     // ns, scheduled arrival -> response
  std::uint64_t requests = 0;    // scheduled (open-loop offered load)
  std::uint64_t responses = 0;   // completed request/response pairs
  std::uint64_t in_flight = 0;   // never answered by quiesce (== requests
                                 // - responses; 0 under paper_clic_config)
  sim::SimTime finished_at = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  // FNV over every (client, seq, latency) row
};

[[nodiscard]] RpcResult rpc_clic(const Scenario& s, const RpcConfig& cfg);
[[nodiscard]] RpcResult rpc_tcp(const Scenario& s, const RpcConfig& cfg);

struct StreamingConfig {
  int streams = 4;  // one sender node per stream; node 0 receives all
  int frames_per_stream = 48;
  std::int64_t frame_bytes = 24000;
  std::int64_t fragment_bytes = 1200;  // wire size per fragment, > 16
  sim::SimTime cadence = sim::milliseconds(5.0);
  sim::SimTime deadline = sim::milliseconds(4.0);  // playout budget per frame
  sim::SimTime start = sim::microseconds(100.0);
  std::uint64_t seed = 1;  // per-stream phase jitter
  std::uint64_t fault_seed = 0;  // as RpcConfig::fault_seed
};

struct StreamingResult {
  sim::HdrHistogram latency;     // ns, frame generated -> reassembled
  std::uint64_t frames = 0;      // expected across all streams
  std::uint64_t on_time = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t late_fragments = 0;
  std::uint64_t duplicate_fragments = 0;
  std::uint64_t in_flight = 0;  // pending at quiesce (0: every deadline fired)
  int max_depth = 0;            // jitter-buffer high-water mark (any stream)
  sim::SimTime finished_at = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

[[nodiscard]] StreamingResult streaming_clic(const Scenario& s,
                                             const StreamingConfig& cfg);
[[nodiscard]] StreamingResult streaming_tcp(const Scenario& s,
                                            const StreamingConfig& cfg);

// --- Sweep helpers ---------------------------------------------------------------
// Log-spaced sizes from `lo` to `hi` (inclusive-ish), `per_decade` points.
[[nodiscard]] std::vector<std::int64_t> sweep_sizes(
    std::int64_t lo = 16, std::int64_t hi = 4 * 1024 * 1024,
    int per_decade = 4);

}  // namespace clicsim::apps
