#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace clicsim::sim {

HdrHistogram::HdrHistogram(int significant_digits, std::int64_t max_trackable)
    : sig_digits_(significant_digits), max_trackable_(max_trackable) {
  if (significant_digits < 1 || significant_digits > 5) {
    throw std::invalid_argument("HdrHistogram: significant_digits in [1,5]");
  }
  if (max_trackable < 2) {
    throw std::invalid_argument("HdrHistogram: max_trackable < 2");
  }
  // Smallest power of two >= 2 * 10^digits: guarantees every sub-bucket is
  // narrower than one part in 10^digits of any value in its bucket.
  std::int64_t needed = 2;
  for (int d = 0; d < significant_digits; ++d) needed *= 10;
  sub_bucket_mag_ = std::bit_width(static_cast<std::uint64_t>(needed - 1));
  sub_bucket_half_ = 1 << (sub_bucket_mag_ - 1);
  const int top_bucket = bucket_of(max_trackable);
  counts_.assign(
      static_cast<std::size_t>(top_bucket + 2) *
          static_cast<std::size_t>(sub_bucket_half_),
      0);
}

int HdrHistogram::bucket_of(std::int64_t value) const {
  const int bit_len =
      64 - std::countl_zero(static_cast<std::uint64_t>(value) | 1u);
  return std::max(0, bit_len - sub_bucket_mag_);
}

std::int64_t HdrHistogram::clamp(std::int64_t value) const {
  return std::clamp<std::int64_t>(value, 0, max_trackable_);
}

std::size_t HdrHistogram::index_of(std::int64_t value) const {
  const int bucket = bucket_of(value);
  const std::int64_t sub = value >> bucket;
  return static_cast<std::size_t>(bucket + 1) *
             static_cast<std::size_t>(sub_bucket_half_) +
         static_cast<std::size_t>(sub - sub_bucket_half_);
}

std::int64_t HdrHistogram::value_at(std::size_t index) const {
  const auto half = static_cast<std::size_t>(sub_bucket_half_);
  if (index < 2 * half) return static_cast<std::int64_t>(index);
  const int bucket = static_cast<int>(index / half) - 1;
  const auto sub = static_cast<std::int64_t>(index - half * static_cast<std::size_t>(bucket));
  return sub << bucket;
}

std::int64_t HdrHistogram::lowest_equivalent(std::int64_t value) const {
  value = clamp(value);
  const int bucket = bucket_of(value);
  return (value >> bucket) << bucket;
}

std::int64_t HdrHistogram::highest_equivalent(std::int64_t value) const {
  value = clamp(value);
  const int bucket = bucket_of(value);
  return (((value >> bucket) + 1) << bucket) - 1;
}

void HdrHistogram::add(std::int64_t value, std::uint64_t count) {
  if (count == 0) return;
  if (value > max_trackable_) saturated_ += count;
  const std::int64_t v = clamp(value);
  counts_[index_of(v)] += count;
  total_ += count;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  sum_ += static_cast<std::uint64_t>(v) * count;
}

void HdrHistogram::merge(const HdrHistogram& other) {
  if (other.sig_digits_ != sig_digits_ ||
      other.max_trackable_ != max_trackable_) {
    throw std::invalid_argument("HdrHistogram::merge: configuration mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  saturated_ += other.saturated_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

double HdrHistogram::mean() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(total_);
}

std::int64_t HdrHistogram::quantile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(
             total_, static_cast<std::uint64_t>(
                         std::ceil(q * static_cast<double>(total_)))));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    if (acc >= rank) {
      // Never report beyond the recorded max: q = 1 is exact.
      return std::min(highest_equivalent(value_at(i)), max_);
    }
  }
  return max_;
}

void HdrHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  saturated_ = 0;
  min_ = std::numeric_limits<std::int64_t>::max();
  max_ = 0;
  sum_ = 0;
}

double Series::max_y() const {
  double m = 0.0;
  for (const auto& p : points_) m = std::max(m, p.y);
  return m;
}

void print_series_table(std::ostream& os, const std::string& x_label,
                        const std::vector<const Series*>& series) {
  os << std::setw(12) << x_label;
  for (const auto* s : series) os << std::setw(16) << s->name();
  os << '\n';
  if (series.empty()) return;
  const auto& grid = series.front()->points();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    os << std::setw(12) << static_cast<std::int64_t>(grid[i].x);
    for (const auto* s : series) {
      os << std::setw(16) << std::fixed << std::setprecision(1)
         << (i < s->points().size() ? s->points()[i].y : 0.0);
    }
    os << '\n';
  }
  os.unsetf(std::ios::fixed);
}

}  // namespace clicsim::sim
