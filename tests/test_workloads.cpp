// Tests for the measurement workloads library and the extra MPI
// collectives (scatter, alltoall).
#include <gtest/gtest.h>

#include "apps/sweep.hpp"
#include "apps/workloads.hpp"

namespace clicsim {
namespace {

// --- Sweep helpers ---------------------------------------------------------------

TEST(Workloads, SweepSizesAreLogSpacedAndCoverRange) {
  const auto sizes = apps::sweep_sizes(16, 1 << 20, 3);
  ASSERT_GE(sizes.size(), 10u);
  EXPECT_EQ(sizes.front(), 16);
  EXPECT_EQ(sizes.back(), 1 << 20);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }
}

TEST(Workloads, SweepSizesRejectsBadRanges) {
  EXPECT_THROW((void)apps::sweep_sizes(0, 100, 3), std::invalid_argument);
  EXPECT_THROW((void)apps::sweep_sizes(100, 10, 3), std::invalid_argument);
}

TEST(Workloads, ToMbpsMath) {
  // 1 MB in 1 ms = 8 Gb/s... in our units: bytes*8e3/ns.
  EXPECT_DOUBLE_EQ(apps::to_mbps(125, sim::microseconds(1.0)), 1000.0);
  EXPECT_DOUBLE_EQ(apps::to_mbps(100, 0), 0.0);
}

// One-way time is the timed span over 2 * reps legs, so a ping-pong needs
// at least one timed round trip on every stack.
TEST(Workloads, PingPongRejectsFewerThanOneRep) {
  using OneWay = sim::SimTime (*)(const apps::Scenario&, std::int64_t);
  const OneWay stacks[] = {apps::clic_one_way,     apps::tcp_one_way,
                           apps::mpi_clic_one_way, apps::mpi_tcp_one_way,
                           apps::pvm_one_way,      apps::gamma_one_way,
                           apps::via_one_way};
  for (const int reps : {0, -1}) {
    apps::Scenario s;
    s.pingpong_reps = reps;
    for (const OneWay one_way : stacks) {
      EXPECT_THROW((void)one_way(s, 64), std::invalid_argument);
    }
  }
}

TEST(Workloads, BandwidthSeriesEvaluatesEachSize) {
  const std::vector<std::int64_t> sizes{100, 1000};
  // Two curves, so the flat job list must be reassembled in spec order.
  const auto curves = apps::bandwidth_series_set(
      {{"rate", [](std::int64_t n) { return sim::SimTime{n * 10}; }},
       {"fixed", [](std::int64_t) { return sim::SimTime{1000}; }}},
      sizes, apps::SweepOptions{2});
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[0].name(), "rate");
  EXPECT_EQ(curves[1].name(), "fixed");
  for (const auto& c : curves) {
    ASSERT_EQ(c.points().size(), 2u);
    EXPECT_DOUBLE_EQ(c.points()[0].x, 100.0);
    EXPECT_DOUBLE_EQ(c.points()[1].x, 1000.0);
  }
  // 10 ns/B is a flat rate; a fixed one-way time gives ten times the
  // bandwidth at ten times the size.
  EXPECT_DOUBLE_EQ(curves[0].points()[0].y, curves[0].points()[1].y);
  EXPECT_DOUBLE_EQ(curves[1].points()[1].y, 10.0 * curves[1].points()[0].y);
}

// --- Stream drivers ---------------------------------------------------------------

TEST(Workloads, ClicStreamReportsConsistentStats) {
  apps::Scenario s;
  const auto st = apps::clic_stream(s, 64 * 1024, 2 * 1024 * 1024);
  EXPECT_EQ(st.bytes, 2 * 1024 * 1024);
  EXPECT_GT(st.mbps, 100.0);
  EXPECT_LT(st.mbps, 1000.0);
  EXPECT_GT(st.rx_cpu, 0.0);
  EXPECT_LT(st.rx_cpu, 1.0);
  EXPECT_GT(st.rx_frames, 200u);
  EXPECT_GT(st.rx_interrupts, 0u);
  EXPECT_LE(st.rx_interrupts, st.rx_frames);
  EXPECT_EQ(st.rx_ring_drops, 0u);
}

TEST(Workloads, StreamingBeatsPingPongBandwidth) {
  apps::Scenario s;
  const double stream = apps::clic_stream(s, 64 * 1024, 2 * 1024 * 1024).mbps;
  const double pp =
      apps::to_mbps(64 * 1024, apps::clic_one_way(s, 64 * 1024));
  EXPECT_GT(stream, pp);  // pipelining beats one-outstanding
}

TEST(Workloads, MtuMattersForClicStreams) {
  apps::Scenario jumbo;
  apps::Scenario standard;
  standard.mtu = 1500;
  const double a = apps::clic_stream(jumbo, 256 * 1024, 4 << 20).mbps;
  const double b = apps::clic_stream(standard, 256 * 1024, 4 << 20).mbps;
  EXPECT_GT(a, b);
}

// --- Extra collectives ---------------------------------------------------------------

TEST(MpiCollectives, ScatterDeliversDistinctChunks) {
  os::ClusterConfig cc;
  cc.nodes = 4;
  apps::MpiClicBed bed(cc);
  int ok = 0;
  struct Run {
    static sim::Task go(mpi::Communicator& c, int* ok) {
      std::vector<net::Buffer> chunks;
      if (c.rank() == 0) {
        for (int i = 0; i < c.size(); ++i) {
          chunks.push_back(net::Buffer::pattern(1000 + i, i));
        }
      }
      net::Buffer mine = co_await c.scatter(0, std::move(chunks));
      if (mine.size() == 1000 + c.rank() &&
          mine.content_equals(net::Buffer::pattern(1000 + c.rank(),
                                                   c.rank()))) {
        ++*ok;
      }
    }
  };
  for (int i = 0; i < 4; ++i) Run::go(bed.comm(i), &ok);
  bed.sim().run();
  EXPECT_EQ(ok, 4);
}

TEST(MpiCollectives, AlltoallPersonalizedExchange) {
  os::ClusterConfig cc;
  cc.nodes = 4;
  apps::MpiClicBed bed(cc);
  int ok = 0;
  struct Run {
    static sim::Task go(mpi::Communicator& c, int* ok) {
      // Rank r sends pattern seeded r*10+j to rank j.
      std::vector<net::Buffer> chunks;
      for (int j = 0; j < c.size(); ++j) {
        chunks.push_back(net::Buffer::pattern(500, c.rank() * 10 + j));
      }
      auto got = co_await c.alltoall(std::move(chunks));
      bool all = got.size() == static_cast<std::size_t>(c.size());
      for (int src = 0; all && src < c.size(); ++src) {
        all = got[static_cast<std::size_t>(src)].content_equals(
            net::Buffer::pattern(500, src * 10 + c.rank()));
      }
      if (all) ++*ok;
    }
  };
  for (int i = 0; i < 4; ++i) Run::go(bed.comm(i), &ok);
  bed.sim().run();
  EXPECT_EQ(ok, 4);
}

TEST(MpiCollectives, ScatterOnTcpTransport) {
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::MpiTcpBed bed(cc);
  int ok = 0;
  struct Run {
    static sim::Task go(apps::MpiTcpBed& bed, int* ok) {
      (void)co_await bed.connect();
      for (int i = 0; i < 3; ++i) body(bed.comm(i), ok);
    }
    static sim::Task body(mpi::Communicator& c, int* ok) {
      std::vector<net::Buffer> chunks;
      if (c.rank() == 1) {
        for (int i = 0; i < c.size(); ++i) {
          chunks.push_back(net::Buffer::zeros(2048));
        }
      }
      net::Buffer mine = co_await c.scatter(1, std::move(chunks));
      if (mine.size() == 2048) ++*ok;
    }
  };
  Run::go(bed, &ok);
  bed.sim().run();
  EXPECT_EQ(ok, 3);
}

}  // namespace
}  // namespace clicsim
