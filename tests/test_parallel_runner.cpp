// The parallel sweep harness: sim::ParallelExecutor and apps::SweepRunner.
// The load-bearing property is cross-thread determinism — the same sweep at
// any -j yields bitwise-equal result rows, per-simulation traces included.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/sweep.hpp"
#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "net/buffer.hpp"
#include "net/buffer_pool.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(ParallelExecutor, RunsEveryIndexExactlyOnce) {
  sim::ParallelExecutor pool(4);
  constexpr std::size_t kJobs = 100;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run_indexed(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelExecutor, SingleThreadRunsInlineInIndexOrder) {
  sim::ParallelExecutor pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_indexed(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelExecutor, MoreThreadsThanJobsIsFine) {
  sim::ParallelExecutor pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.run_indexed(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, ZeroJobsReturnsImmediately) {
  sim::ParallelExecutor pool(4);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "no job to run"; });
}

TEST(ParallelExecutor, DefaultsToHardwareConcurrency) {
  EXPECT_GE(sim::ParallelExecutor().threads(), 1);
  EXPECT_EQ(sim::ParallelExecutor(3).threads(), 3);
  EXPECT_EQ(sim::ParallelExecutor(0).threads(),
            sim::ParallelExecutor::default_threads());
}

TEST(ParallelExecutor, FirstJobExceptionPropagates) {
  sim::ParallelExecutor pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run_indexed(8,
                       [&](std::size_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 7);  // the pool drains before rethrowing
}

// One sweep job: a real simulation that both measures (one-way time) and
// traces (the sim-time stamps of handlers run inside a second simulation).
struct TracedRow {
  sim::SimTime one_way = 0;
  std::uint64_t events = 0;
  std::vector<sim::SimTime> trace;

  bool operator==(const TracedRow&) const = default;
};

TracedRow traced_point(std::int64_t size) {
  apps::Scenario s;
  s.pingpong_reps = 2;
  TracedRow row;
  row.one_way = apps::clic_one_way(s, size);

  // A second small simulation whose handlers record when they ran:
  // exercises a per-simulation trace with real sim-time stamps.
  sim::Simulator sim;
  for (int i = 0; i < 3; ++i) {
    sim.after(100 * (i + 1) + size,
              [&sim, &row] { row.trace.push_back(sim.now()); });
  }
  row.events = sim.run();
  return row;
}

// The acceptance-criterion test: the same 8-point sweep at -j1, -j2 and
// -j8 produces bitwise-equal rows, traces included.
TEST(SweepDeterminism, RowsAndTracesIdenticalAcrossJobCounts) {
  const std::vector<std::int64_t> sizes{0,    64,    512,   4096,
                                        9000, 30000, 65536, 262144};

  auto sweep = [&](int jobs) {
    apps::SweepRunner<TracedRow> runner(apps::SweepOptions{jobs});
    for (const auto size : sizes) {
      runner.add([size] { return traced_point(size); });
    }
    return runner.run();
  };

  const auto rows1 = sweep(1);
  const auto rows2 = sweep(2);
  const auto rows8 = sweep(8);

  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows8);

  // The traces are non-trivial and per-simulation.
  ASSERT_EQ(rows1.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::vector<sim::SimTime> expect{
        100 + sizes[i], 200 + sizes[i], 300 + sizes[i]};
    EXPECT_EQ(rows1[i].trace, expect);
  }
}

// One sweep job carrying real data through the pooled packet path: a
// patterned CLIC message delivered end-to-end, fingerprinted by one-way
// latency, event count and the delivered payload's checksum.
struct PooledRow {
  sim::SimTime one_way = 0;
  std::uint64_t events = 0;
  std::uint64_t payload_sum = 0;

  bool operator==(const PooledRow&) const = default;
};

PooledRow pooled_point(std::int64_t size) {
  apps::ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  PooledRow row;
  struct Run {
    static sim::Task exchange(clic::ClicModule& a, clic::ClicModule& b,
                              std::int64_t size, PooledRow* row) {
      auto st = co_await a.send(1, 1, 1, net::Buffer::pattern(size, 99),
                                clic::SendMode::kConfirmed);
      if (!st.ok) co_return;
      clic::Message m = co_await b.recv(1);
      row->payload_sum = m.data.checksum();
    }
  };
  Run::exchange(bed.module(0), bed.module(1), size, &row);
  row.events = bed.sim.run();
  row.one_way = bed.sim.now();
  return row;
}

// Pooling regression across job counts: per-simulation pools are strictly
// thread-confined, so the same data-carrying sweep must be bitwise equal
// at -j1/-j2/-j8, with pooling active and with the bypass — and across
// the two (recycling is invisible to results).
TEST(SweepDeterminism, PooledRowsIdenticalAcrossJobCountsAndBypass) {
  const std::vector<std::int64_t> sizes{1,    512,   4096,
                                        9000, 30000, 120000};
  auto sweep = [&](int jobs) {
    apps::SweepRunner<PooledRow> runner(apps::SweepOptions{jobs});
    for (const auto size : sizes) {
      runner.add([size] { return pooled_point(size); });
    }
    return runner.run();
  };

  net::BufferPool::set_pooling_enabled(true);
  const auto pooled1 = sweep(1);
  const auto pooled2 = sweep(2);
  const auto pooled8 = sweep(8);
  net::BufferPool::set_pooling_enabled(false);
  const auto plain1 = sweep(1);
  const auto plain8 = sweep(8);
  net::BufferPool::clear_pooling_override();

  EXPECT_EQ(pooled1, pooled2);
  EXPECT_EQ(pooled1, pooled8);
  EXPECT_EQ(pooled1, plain1);
  EXPECT_EQ(plain1, plain8);
  for (const auto& row : pooled1) {
    EXPECT_GT(row.one_way, 0);
    EXPECT_NE(row.payload_sum, 0u);
  }
}

TEST(SweepRunner, RowsComeBackInAddOrder) {
  apps::SweepRunner<int> runner(apps::SweepOptions{4});
  for (int i = 0; i < 32; ++i) {
    runner.add([i] { return i * i; });
  }
  const auto rows = runner.run();
  ASSERT_EQ(rows.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rows[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, DefaultWorkersLeaveTheCoresToShardThreads) {
  // Without -j, sweep workers times shard threads stay within the cores:
  // with one shard thread per core, every job runs on the calling thread.
  apps::SweepRunner<std::thread::id> runner(apps::SweepOptions{
      .jobs = 0, .shards = sim::ParallelExecutor::default_threads()});
  for (int i = 0; i < 16; ++i) {
    runner.add([] { return std::this_thread::get_id(); });
  }
  for (const auto id : runner.run()) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(SweepArgs, ParsesJobFlagForms) {
  auto parse = [](std::vector<const char*> argv) {
    return apps::parse_sweep_args(static_cast<int>(argv.size()),
                                  const_cast<char**>(argv.data()));
  };
  EXPECT_EQ(parse({"bench"}).jobs, 0);
  EXPECT_EQ(parse({"bench", "-j", "4"}).jobs, 4);
  EXPECT_EQ(parse({"bench", "-j8"}).jobs, 8);
  EXPECT_EQ(parse({"bench", "--jobs", "2"}).jobs, 2);
  EXPECT_EQ(parse({"bench", "--jobs=16"}).jobs, 16);
}

TEST(SweepArgs, RejectsBadInput) {
  auto run = [](std::vector<const char*> argv) {
    apps::parse_sweep_args(static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data()));
  };
  EXPECT_EXIT(run({"bench", "-j", "0"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(run({"bench", "-j"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(run({"bench", "-jx"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(run({"bench", "--frobnicate"}), testing::ExitedWithCode(2),
              "usage");
  // --help prints usage on stdout (the death-test matcher sees stderr only).
  EXPECT_EXIT(run({"bench", "--help"}), testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace clicsim
