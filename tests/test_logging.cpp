// Logging and series-table rendering (smoke coverage for the diagnostics).
#include <gtest/gtest.h>

#include <sstream>

#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace clicsim::sim {
namespace {

TEST(Logging, LevelGateSuppressesBelowThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  Simulator sim;
  int evaluated = 0;
  // The streamed expression must not be evaluated when gated off.
  CLICSIM_LOG(sim, LogLevel::kDebug, "test") << ++evaluated;
  EXPECT_EQ(evaluated, 0);
  set_log_level(LogLevel::kTrace);
  CLICSIM_LOG(sim, LogLevel::kDebug, "test") << ++evaluated;
  EXPECT_EQ(evaluated, 1);
  set_log_level(before);
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
  EXPECT_EQ(log_level_name(LogLevel::kOff), "OFF");
}

TEST(SeriesTable, RendersSharedGrid) {
  Series a("alpha");
  Series b("beta");
  a.add(1, 10);
  a.add(2, 20);
  b.add(1, 30);
  b.add(2, 40);
  std::ostringstream os;
  print_series_table(os, "x", {&a, &b});
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("40.0"), std::string::npos);
}

}  // namespace
}  // namespace clicsim::sim
