// Figure-sweep harness: a figure is a vector of self-contained scenario
// jobs, each constructing its own Simulator/cluster from a plain config
// struct and returning a POD result row.
//
// Jobs execute on a sim::ParallelExecutor and write only their own result
// slot; rows come back in add() order, so a binary's output is
// byte-identical regardless of -j. `-j1` runs the jobs inline on the
// calling thread — exactly the historical sequential behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_executor.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace clicsim::apps {

struct SweepOptions {
  int jobs = 0;    // worker threads; <= 0 means workers() picks
  int shards = 1;  // intra-scenario PDES shards per simulation (1 = serial)

  // Sweep worker threads: `jobs` when set, else max(1, cores / shards).
  // Every job of a sharded sweep spins `shards` threads, so the default
  // keeps workers times shard threads within the cores.
  [[nodiscard]] int workers() const;
};

// Parses the shared benchmark command line: `-j N`, `-jN`, `--jobs N` or
// `--jobs=N` select the worker count (default: all cores divided by the
// shard count; `-j1` reproduces the sequential run bit for bit);
// `--shards N` / `--shards=N` shard each individual simulation across N
// PDES worker threads (default 1; output is byte-identical at any shard
// count). `-h`/`--help` prints usage and exits 0; anything unrecognized
// prints usage to stderr and exits 2.
SweepOptions parse_sweep_args(int argc, char** argv);

template <typename Row>
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {})
      : options_(options) {}

  // Registers one self-contained scenario job; returns its row index.
  std::size_t add(std::function<Row()> job) {
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  // Runs every registered job and returns the rows in add() order.
  std::vector<Row> run() {
    std::vector<Row> rows(jobs_.size());
    const sim::ParallelExecutor pool(options_.workers());
    pool.run_indexed(jobs_.size(),
                     [&](std::size_t i) { rows[i] = jobs_[i](); });
    jobs_.clear();
    return rows;
  }

 private:
  SweepOptions options_;
  std::vector<std::function<Row()>> jobs_;
};

// One bandwidth curve of a figure: a name plus the one-way-time driver the
// sweep sizes are fed through.
struct SeriesSpec {
  std::string name;
  std::function<sim::SimTime(std::int64_t)> one_way;
};

// Builds every (series, size) bandwidth point as one job in a single flat
// FIFO and reassembles the curves in spec order. This is the workhorse of
// the figure binaries: all points of all curves share the worker pool.
[[nodiscard]] std::vector<sim::Series> bandwidth_series_set(
    const std::vector<SeriesSpec>& specs,
    const std::vector<std::int64_t>& sizes, const SweepOptions& options);

}  // namespace clicsim::apps
