#include "apps/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/workloads.hpp"

namespace clicsim::apps {

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [-j N] [--shards N]\n"
               "  -j N, --jobs N   run sweep points on N worker threads\n"
               "                   (default: all cores divided by --shards;\n"
               "                   -j1 is the exact sequential run — output\n"
               "                   is byte-identical at any -j)\n"
               "  --shards N       shard each simulation across N PDES\n"
               "                   worker threads (default 1; output is\n"
               "                   byte-identical at any shard count)\n",
               prog);
  std::exit(code);
}

int parse_job_count(const char* prog, const char* text) {
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || n < 1 || n > 4096) usage(prog, 2);
  return static_cast<int>(n);
}

}  // namespace

int SweepOptions::workers() const {
  if (jobs > 0) return jobs;
  return std::max(1, sim::ParallelExecutor::default_threads() /
                         std::max(1, shards));
}

SweepOptions parse_sweep_args(int argc, char** argv) {
  SweepOptions options;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-h") == 0 || std::strcmp(arg, "--help") == 0) {
      usage(prog, 0);
    } else if (std::strcmp(arg, "-j") == 0 ||
               std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 >= argc) usage(prog, 2);
      options.jobs = parse_job_count(prog, argv[++i]);
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      options.jobs = parse_job_count(prog, arg + 2);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      options.jobs = parse_job_count(prog, arg + 7);
    } else if (std::strcmp(arg, "--shards") == 0) {
      if (i + 1 >= argc) usage(prog, 2);
      options.shards = parse_job_count(prog, argv[++i]);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      options.shards = parse_job_count(prog, arg + 9);
    } else {
      usage(prog, 2);
    }
  }
  return options;
}

std::vector<sim::Series> bandwidth_series_set(
    const std::vector<SeriesSpec>& specs,
    const std::vector<std::int64_t>& sizes, const SweepOptions& options) {
  SweepRunner<sim::SimTime> runner(options);
  for (const auto& spec : specs) {
    for (const auto size : sizes) {
      runner.add([&spec, size] { return spec.one_way(size); });
    }
  }
  const auto times = runner.run();

  std::vector<sim::Series> curves;
  curves.reserve(specs.size());
  std::size_t slot = 0;
  for (const auto& spec : specs) {
    sim::Series series(spec.name);
    for (const auto size : sizes) {
      series.add(static_cast<double>(size), to_mbps(size, times[slot++]));
    }
    curves.push_back(std::move(series));
  }
  return curves;
}

}  // namespace clicsim::apps
