// Lightweight measurement primitives used throughout the models and the
// benchmark harness: HDR-style log-linear histograms for tail-latency
// telemetry, and (x, y) series for figure reproduction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace clicsim::sim {

// HDR-style log-linear histogram for tail-latency telemetry (p99/p999
// claims need a bounded relative error, not a power-of-two bucket).
//
// Values are bucketed with a guaranteed relative precision: within each
// power-of-two range the range is subdivided into `sub_bucket_count`
// linear sub-buckets, where sub_bucket_count is the smallest power of two
// >= 2 * 10^significant_digits. Every recorded value v therefore lands in
// a bucket whose width w satisfies w <= max(1, v / 10^significant_digits).
//
// quantile(q) uses exact rank semantics: it locates the sample of rank
// ceil(q * count()) in the recorded (bucketed) distribution and returns
// the highest value equivalent to it — so the result is >= the true
// sample quantile and overshoots by at most one part in
// 10^significant_digits (and never beyond the recorded max).
//
// Histograms with equal configuration merge exactly (bucket-wise counter
// addition, wrapping sums): merge() is associative and commutative, but
// callers that fold many parts (sweep cells, per-client telemetry from
// ShardGroup shards) should still do so in index order — the fixed order
// is what makes whole-report digests byte-identical at any parallelism.
//
// Values above max_trackable() are clamped into the top bucket (and
// counted by saturated()); negative values clamp to zero.
class HdrHistogram {
 public:
  explicit HdrHistogram(int significant_digits = 3,
                        std::int64_t max_trackable =
                            std::int64_t{1} << 40);  // ~18 min in ns

  void add(std::int64_t value, std::uint64_t count = 1);

  // Adds every bucket of `other` (same significant digits and max
  // trackable required; throws std::invalid_argument otherwise).
  void merge(const HdrHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::uint64_t saturated() const { return saturated_; }
  [[nodiscard]] std::int64_t min() const { return total_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return total_ ? max_ : 0; }
  // Exact mean of the recorded (clamped) values; sums wrap at 2^64, far
  // beyond any realistic latency total.
  [[nodiscard]] double mean() const;

  // Value at quantile q (0 < q <= 1) under exact rank semantics (see file
  // comment); 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  // Bounds of the bucket containing `value` (precision introspection).
  [[nodiscard]] std::int64_t lowest_equivalent(std::int64_t value) const;
  [[nodiscard]] std::int64_t highest_equivalent(std::int64_t value) const;

  [[nodiscard]] int significant_digits() const { return sig_digits_; }
  [[nodiscard]] std::int64_t max_trackable() const { return max_trackable_; }

  void reset();

  // Equal configuration and bucket-for-bucket identical contents.
  bool operator==(const HdrHistogram& other) const = default;

 private:
  [[nodiscard]] int bucket_of(std::int64_t value) const;
  [[nodiscard]] std::size_t index_of(std::int64_t value) const;
  [[nodiscard]] std::int64_t value_at(std::size_t index) const;
  [[nodiscard]] std::int64_t clamp(std::int64_t value) const;

  int sig_digits_ = 3;
  int sub_bucket_mag_ = 0;   // log2(sub_bucket_count)
  int sub_bucket_half_ = 0;  // sub_bucket_count / 2
  std::int64_t max_trackable_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t saturated_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
  std::uint64_t sum_ = 0;  // wrapping
};

// Ordered (x, y) samples; used by benches to emit figure series.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}

  void add(double x, double y) { points_.push_back({x, y}); }
  [[nodiscard]] const std::string& name() const { return name_; }

  struct Point {
    double x;
    double y;
  };
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  [[nodiscard]] double max_y() const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

// Prints a fixed-width table of several series sharing x values.
// Every series must have the same x grid (the sweep sizes).
void print_series_table(std::ostream& os, const std::string& x_label,
                        const std::vector<const Series*>& series);

}  // namespace clicsim::sim
