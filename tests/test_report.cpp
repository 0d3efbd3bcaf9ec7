// Cluster and CLIC reporting snapshots.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/report.hpp"
#include "apps/testbed.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(Report, ClusterSnapshotContainsAllNodes) {
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::ClicBed bed(cc);
  bed.module(0).bind_port(1);
  bed.module(2).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 2, 1, net::Buffer::zeros(50000));
    }
    static sim::Task rx(clic::ClicModule& m) { (void)co_await m.recv(1); }
  };
  Run::tx(bed.module(0));
  Run::rx(bed.module(2));
  bed.sim.run();

  std::ostringstream os;
  apps::report_cluster(os, bed.cluster);
  const std::string s = os.str();
  EXPECT_NE(s.find("cluster: 3 nodes"), std::string::npos);
  EXPECT_NE(s.find("tx-frm"), std::string::npos);
  // Three node rows.
  EXPECT_NE(s.find("\n     0"), std::string::npos);
  EXPECT_NE(s.find("\n     2"), std::string::npos);
}

TEST(Report, ClicSnapshotShowsChannels) {
  apps::ClicBed bed;
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 1, 1, net::Buffer::zeros(20000));
    }
    static sim::Task rx(clic::ClicModule& m) { (void)co_await m.recv(1); }
  };
  Run::tx(bed.module(0));
  Run::rx(bed.module(1));
  bed.sim.run();

  std::ostringstream os;
  apps::report_clic(os, bed.module(1));
  const std::string s = os.str();
  EXPECT_NE(s.find("clic@node1"), std::string::npos);
  EXPECT_NE(s.find("channel -> node0"), std::string::npos);
  EXPECT_NE(s.find("retransmits 0"), std::string::npos);
}

}  // namespace
}  // namespace clicsim
