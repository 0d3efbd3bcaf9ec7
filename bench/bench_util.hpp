// Shared helpers for the figure/table reproduction binaries: table
// printing, PAPER vs MEASURED summaries, and the common --shards flag
// family the scaling benches accept.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "apps/sweep.hpp"
#include "apps/workloads.hpp"
#include "net/buffer_pool.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"

namespace clicsim::bench {

// ---- shared --shards argument family -----------------------------------
//
// pdes_scale and collective_scale used to re-parse these independently
// (drifting flags and clamp ranges); both now consume them here so the
// spellings, the [1, 4096] clamp and the help text stay consistent.

struct ShardArgs {
  int shards = 1;
  bool stats = false;  // --shard-stats: engine counters to stderr
};

// Help block matching exactly what consume_shard_arg() accepts.
inline constexpr const char* kShardArgsHelp =
    "  --shards N     PDES worker shards for each scenario (default 1;\n"
    "                 stdout is byte-identical at any shard count)\n"
    "  --shard-stats  print engine coordination counters (windows,\n"
    "                 barrier waits, cross-shard posts, COW payload\n"
    "                 mints) and host time summed over shards (busy,\n"
    "                 barrier wait, serial phase) to stderr after the run\n";

// Parses decimal `text` into [lo, hi]; false on malformed/out-of-range
// (callers turn that into their own usage() exit).
inline bool parse_long_in(const char* text, long lo, long hi, long& out) {
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || n < lo || n > hi) return false;
  out = n;
  return true;
}

enum class ArgOutcome {
  kNotMine,   // argv[i] is some other flag: caller handles it
  kConsumed,  // flag (and any separate value) consumed; i advanced
  kBad,       // matched one of ours but the value is malformed
};

inline ArgOutcome consume_shard_arg(ShardArgs& out, int argc, char** argv,
                                    int& i) {
  const char* arg = argv[i];
  auto value = [&]() -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  auto ok = [&](const char* text, long lo, long hi, long& v) {
    return text != nullptr && parse_long_in(text, lo, hi, v);
  };
  long v = 0;
  if (std::strcmp(arg, "--shards") == 0) {
    if (!ok(value(), 1, 4096, v)) return ArgOutcome::kBad;
    out.shards = static_cast<int>(v);
    return ArgOutcome::kConsumed;
  }
  if (std::strncmp(arg, "--shards=", 9) == 0) {
    if (!ok(arg + 9, 1, 4096, v)) return ArgOutcome::kBad;
    out.shards = static_cast<int>(v);
    return ArgOutcome::kConsumed;
  }
  if (std::strcmp(arg, "--shard-stats") == 0) {
    out.stats = true;
    return ArgOutcome::kConsumed;
  }
  return ArgOutcome::kNotMine;
}

// Accumulates ShardGroup coordination counters across beds (a bench may
// build several) plus the process-wide COW payload accounting; printed to
// stderr so stdout stays byte-identical for the determinism cmp gates.
// The engine-phase host times close the line: busy and wait are summed
// over shards (wait includes the serial phase), so wait / (busy + wait)
// is the share of shard time spent at the barrier.
struct ShardStats {
  std::uint64_t windows = 0;
  std::uint64_t barrier_waits = 0;
  std::uint64_t cross_shard_posts = 0;
  std::uint64_t events_drained = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t serial_ns = 0;

  void absorb(const sim::ShardGroup& g) {
    windows += g.windows_opened();
    barrier_waits += g.barrier_waits();
    cross_shard_posts += g.cross_shard_posts();
    events_drained += g.events_drained();
    for (int s = 0; s < g.shards(); ++s) {
      busy_ns += g.busy_ns(s);
      wait_ns += g.wait_ns(s);
    }
    serial_ns += g.serial_ns();
  }

  void print(const char* prog, int shards) const {
    std::fprintf(
        stderr,
        "%s: shard-stats shards=%d windows=%llu barrier_waits=%llu"
        " cross_shard_posts=%llu drained=%llu shared_mints=%llu"
        " unpooled_copies=%llu busy_ms=%.1f wait_ms=%.1f serial_ms=%.1f\n",
        prog, shards, static_cast<unsigned long long>(windows),
        static_cast<unsigned long long>(barrier_waits),
        static_cast<unsigned long long>(cross_shard_posts),
        static_cast<unsigned long long>(events_drained),
        static_cast<unsigned long long>(net::detail::shared_data_mints()),
        static_cast<unsigned long long>(net::detail::unpooled_data_copies()),
        static_cast<double>(busy_ns) / 1e6,
        static_cast<double>(wait_ns) / 1e6,
        static_cast<double>(serial_ns) / 1e6);
  }
};

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// Shape regressions recorded by compare()/claim(); the binaries return
// exit_code() so scripts/reproduce.sh fails when a row goes [off] or a
// claim prints [VIOLATED].
inline int& failure_count() {
  static int failures = 0;
  return failures;
}

[[nodiscard]] inline int exit_code() { return failure_count() > 0 ? 1 : 0; }

// One PAPER vs MEASURED row with a pass/fail-ish qualitative check. Pass
// `enforced = false` for a row whose divergence is expected and explained
// in the output (it still prints [off] but does not fail the binary).
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit, double rel_tolerance = 0.35,
                    bool enforced = true) {
  const double rel =
      paper != 0.0 ? (measured - paper) / paper : 0.0;
  const bool ok = std::abs(rel) <= rel_tolerance;
  if (!ok && enforced) ++failure_count();
  std::printf("  %-46s paper %9.1f %-6s measured %9.1f %-6s (%+5.1f%%) %s\n",
              what.c_str(), paper, unit.c_str(), measured, unit.c_str(),
              rel * 100.0, ok ? "[shape OK]" : "[off]");
}

inline void claim(const std::string& what, bool holds) {
  if (!holds) ++failure_count();
  std::printf("  %-74s %s\n", what.c_str(),
              holds ? "[holds]" : "[VIOLATED]");
}

inline void print_table(const std::vector<const sim::Series*>& series) {
  sim::print_series_table(std::cout, "size(B)", series);
}

// Smallest sweep size from which the curve stays at or above `fraction` of
// its own maximum (a monotone-envelope crossing: robust against the local
// Nagle/delayed-ack dip in the TCP curve).
inline double half_bandwidth_point(const sim::Series& s,
                                   double fraction = 0.5) {
  const double level = fraction * s.max_y();
  const auto& pts = s.points();
  std::size_t first_stable = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].y < level) first_stable = i + 1;
  }
  if (first_stable >= pts.size()) return pts.empty() ? 0.0 : pts.back().x;
  return pts[first_stable].x;
}

}  // namespace clicsim::bench
