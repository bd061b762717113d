// Seeded random-number generation with the distributions the models need.
//
// Every stochastic component of the library takes an Rng&, never a global:
// simulations are reproducible given a seed (Core Guidelines I.2 -- avoid
// non-const global state).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::des {

/// Derives an independent-stream seed from a base seed and a stream index
/// (splitmix64 finalizer).  Parallel sweeps give every shard
/// `Rng(mix_seed(seed, shard))` so results are independent of how shards are
/// scheduled across workers, and shard 0's stream is decorrelated from the
/// base seed itself.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t seed,
                                               std::uint64_t stream) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mersenne-twister-backed generator with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability);

  /// Normal distribution.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Lognormal parameterised by its *median* and the sigma of the underlying
  /// normal; heavy-tailed delays (queueing, scheduling) use this shape.
  [[nodiscard]] double lognormal_median(double median, double sigma);

  /// Exponential with the given mean.
  [[nodiscard]] double exponential(double mean);

  /// Picks an index in [0, weights.size()) proportional to weights.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

  /// Uniformly samples `k` distinct indices from [0, n).
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                                      std::uint32_t k);

  /// Shuffles a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

 private:
  /// MT19937-64 whose output sequence is bit-identical to
  /// `std::mt19937_64(seed)`, expanded lazily.
  ///
  /// Seeding fills x[0] = seed, x[k] = F * (x[k-1] ^ (x[k-1] >> 62)) + k, and
  /// output i of the first twist, for i < 156, is
  /// temper(x[i+156] ^ A(upper(x[i]) | lower(x[i+1]))): it needs only those
  /// three seeding words.  So a fresh engine keeps x[i] and x[i+156] and
  /// advances both by one recurrence step per draw (prefix mode).
  /// On draw 157 it builds the 2.5 KB `std::mt19937_64(seed)` on the heap,
  /// skips the 156 outputs already given, and draws from it from then on
  /// (full mode).  Most per-user streams draw a handful of numbers and never
  /// leave prefix mode.
  class Engine {
   public:
    using result_type = std::uint64_t;
    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    explicit Engine(std::uint64_t seed) noexcept : seed_(seed), low_(seed), high_(seed) {
      for (std::uint64_t k = 1; k <= kPrefix; ++k) high_ = seed_step(high_, k);
    }
    Engine(const Engine& other)
        : seed_(other.seed_),
          low_(other.low_),
          high_(other.high_),
          draws_(other.draws_),
          full_(other.full_ ? std::make_unique<std::mt19937_64>(*other.full_)
                            : nullptr) {}
    Engine& operator=(const Engine& other) {
      if (this != &other) *this = Engine(other);
      return *this;
    }
    Engine(Engine&&) noexcept = default;
    Engine& operator=(Engine&&) noexcept = default;

    result_type operator()() {
      if (full_) return (*full_)();
      if (draws_ == kPrefix) return expand();
      // x[i+1] from x[i]; the twist mixes x[i]'s upper and x[i+1]'s lower bits.
      const std::uint64_t next = seed_step(low_, draws_ + 1);
      const std::uint64_t y = (low_ & kUpperMask) | (next & kLowerMask);
      const std::uint64_t twisted = high_ ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
      low_ = next;
      high_ = seed_step(high_, draws_ + kPrefix + 1);
      ++draws_;
      return temper(twisted);
    }

   private:
    /// mt19937_64's shift size m: outputs [0, m) need no twisted word.
    static constexpr std::uint32_t kPrefix = 156;
    static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
    static constexpr std::uint64_t kLowerMask = ~kUpperMask;
    static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

    static constexpr std::uint64_t seed_step(std::uint64_t x, std::uint64_t k) noexcept {
      return 6364136223846793005ULL * (x ^ (x >> 62)) + k;
    }
    static constexpr std::uint64_t temper(std::uint64_t z) noexcept {
      z ^= (z >> 29) & 0x5555555555555555ULL;
      z ^= (z << 17) & 0x71d67fffeda60000ULL;
      z ^= (z << 37) & 0xfff7eee000000000ULL;
      return z ^ (z >> 43);
    }

    /// Switches to full mode on draw kPrefix + 1 and returns that draw.
    result_type expand();

    std::uint64_t seed_;
    std::uint64_t low_;   // prefix mode: x[draws_]
    std::uint64_t high_;  // prefix mode: x[draws_ + kPrefix]
    std::uint32_t draws_ = 0;
    std::unique_ptr<std::mt19937_64> full_;  // engaged from draw kPrefix + 1
  };

  Engine engine_;
};

static_assert(sizeof(Rng) <= 40, "a per-client Rng stream must stay small");

/// Zipf distribution over ranks 1..n with exponent s, using a precomputed
/// CDF table (O(n) setup, O(log n) sampling).  This is the standard model
/// for CDN content popularity.
class ZipfDistribution {
 public:
  /// @throws spacecdn::ConfigError if n == 0 or s < 0.
  ZipfDistribution(std::uint64_t n, double s);

  /// Samples a rank in [1, n]; rank 1 is the most popular.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::uint64_t rank) const;

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] double exponent() const noexcept { return s_; }

 private:
  std::uint64_t n_;
  double s_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i + 1)
};

}  // namespace spacecdn::des
