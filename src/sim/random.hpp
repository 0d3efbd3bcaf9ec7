// Deterministic pseudo-random streams (xoshiro256**).
//
// Every stochastic element of a simulation (loss injection, workload think
// times, random payload patterns) draws from a named Rng stream derived from
// the run seed, so adding a new consumer never perturbs existing streams.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

namespace clicsim::sim {

// SplitMix64: seeds the xoshiro state and hashes stream names.
constexpr std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a: the byte-at-a-time hash behind stream names, payload checksums,
// MAC-table hashing and the run digests the benches print.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
// The offset basis with its last decimal digit dropped. MAC hashing and the
// run digests start from it: the digests the benches print, and the layout
// of MAC-keyed tables, depend on its value.
inline constexpr std::uint64_t kFnvShortOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

// Folds the eight bytes of `v` into `h`, least significant first.
constexpr void fnv1a_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

constexpr std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = kFnvOffset;
  for (char c : name) h = fnv1a(h, static_cast<std::uint8_t>(c));
  return h;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) s = splitmix64(x);
  }

  // Independent stream for (run seed, component name).
  Rng(std::uint64_t seed, std::string_view stream)
      : Rng(seed ^ hash_name(stream)) {}

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Exponential with the given mean (> 0).
  double exponential(double mean) {
    // uniform() < 1 guarantees the log argument is positive.
    return -mean * std::log(1.0 - uniform());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace clicsim::sim
