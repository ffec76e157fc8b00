#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sgnn/util/error.hpp"

namespace sgnn {

/// Deterministic, splittable pseudo-random generator (xoshiro256**,
/// seeded via splitmix64). Every stochastic component in sgnn draws from an
/// explicitly passed Rng so that experiments are reproducible bit-for-bit
/// across runs regardless of evaluation order.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  /// Derive an independent stream; used to hand each dataset source, rank,
  /// or layer its own generator without coupling their sequences.
  Rng split() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ULL); }

  /// Complete generator state, for training-state checkpoints: restoring a
  /// saved State resumes the exact sequence (including the cached Box-Muller
  /// value). Trivially copyable so snapshots can store it byte-for-byte.
  struct State {
    std::uint64_t s[4] = {};
    double cached = 0.0;
    std::uint8_t has_cached = 0;
  };

  State state() const {
    State snapshot;
    for (int i = 0; i < 4; ++i) snapshot.s[i] = state_[i];
    snapshot.cached = cached_;
    snapshot.has_cached = has_cached_ ? 1 : 0;
    return snapshot;
  }

  void set_state(const State& snapshot) {
    for (int i = 0; i < 4; ++i) state_[i] = snapshot.s[i];
    cached_ = snapshot.cached;
    has_cached_ = snapshot.has_cached != 0;
  }

  std::uint64_t next_u64() {
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

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) {
    SGNN_CHECK(n > 0, "uniform_index requires n > 0");
    // Lemire-style rejection-free multiply-shift is fine here; modulo bias is
    // negligible for n << 2^64 but we reject to keep determinism exact.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  /// Fisher-Yates shuffle in place: the one permutation step behind every
  /// batch order and dataset split.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[uniform_index(i)]);
    }
  }

  /// Standard normal via Box-Muller (cached second value).
  double normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = uniform();
    const double u2 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace sgnn
