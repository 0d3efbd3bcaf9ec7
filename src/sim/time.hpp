// Simulated time: 64-bit signed nanoseconds since simulation start.
//
// All model constants and measurements in clicsim are expressed in SimTime.
// Helper factories (nanoseconds/microseconds/...) keep call sites readable;
// to_us/to_ms convert back for reporting.
#pragma once

#include <cstdint>

namespace clicsim::sim {

using SimTime = std::int64_t;  // nanoseconds

inline constexpr SimTime kNever = INT64_MAX;

constexpr SimTime nanoseconds(std::int64_t n) { return n; }
constexpr SimTime microseconds(double us) {
  return static_cast<SimTime>(us * 1e3);
}
constexpr SimTime milliseconds(double ms) {
  return static_cast<SimTime>(ms * 1e6);
}
constexpr SimTime seconds(double s) { return static_cast<SimTime>(s * 1e9); }

constexpr double to_us(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double to_ms(SimTime t) { return static_cast<double>(t) / 1e6; }

// Time to serialize `bytes` at `bits_per_second` (rounded up to whole ns).
constexpr SimTime transmission_time(std::int64_t bytes,
                                    double bits_per_second) {
  const double ns = static_cast<double>(bytes) * 8.0 * 1e9 / bits_per_second;
  return static_cast<SimTime>(ns + 0.999999);
}

// Time to move `bytes` at `bytes_per_second` (rounded up to whole ns).
constexpr SimTime transfer_time(std::int64_t bytes, double bytes_per_second) {
  const double ns = static_cast<double>(bytes) * 1e9 / bytes_per_second;
  return static_cast<SimTime>(ns + 0.999999);
}

}  // namespace clicsim::sim
