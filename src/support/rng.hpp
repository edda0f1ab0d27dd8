// Deterministic random-number facilities.
//
// Every stochastic component of the reproduction (Table-II instance sampling,
// simulated annealing, gossip target selection, rock erosion) draws from an
// explicitly seeded `Rng`. Substreams are derived with `fork`, so that e.g.
// the erosion dynamics and the LB technique never share a stream — running the
// same seed under the standard method and under ULBA yields bit-identical
// workload evolution, which is what makes their comparison clean.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "support/require.hpp"

namespace ulba::support {

/// Seeded pseudo-random generator (mt19937_64 engine) with the handful of
/// distributions the reproduction needs. Copyable; copies advance
/// independently.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Seed used at construction (forks derive theirs from it).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derive an independent substream. Deterministic: fork(i) of an Rng seeded
  /// with s always yields the same stream, regardless of how much the parent
  /// has been consumed.
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    // SplitMix64 finalizer mixes (seed, stream) into a fresh seed; this is the
    // standard recipe for deriving statistically independent mt19937 seeds.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    return Rng(z);
  }

  /// Uniform real on [lo, hi).
  double uniform(double lo, double hi) {
    ULBA_REQUIRE(lo <= hi, "uniform bounds must be ordered");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer on [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    ULBA_REQUIRE(lo <= hi, "uniform_int bounds must be ordered");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Index uniform on [0, n).
  std::size_t index(std::size_t n) {
    ULBA_REQUIRE(n > 0, "index needs a non-empty range");
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_));
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    ULBA_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Normal deviate.
  double normal(double mean, double stddev) {
    ULBA_REQUIRE(stddev >= 0.0, "stddev must be non-negative");
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Uniformly pick one element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> values) {
    ULBA_REQUIRE(!values.empty(), "pick needs a non-empty span");
    return values[index(values.size())];
  }

  /// Sample k distinct indices from [0, n) (partial Fisher–Yates over a
  /// virtual pool: O(k) memory and at most O(k²) time, whatever n).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

  /// UniformRandomBitGenerator interface so <algorithm> shuffles work.
  result_type operator()() { return engine_(); }
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace ulba::support
