#include "des/random.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace spacecdn::des {

Rng::Engine::result_type Rng::Engine::expand() {
  full_ = std::make_unique<std::mt19937_64>(seed_);
  full_->discard(kPrefix);
  return (*full_)();
}

double Rng::uniform(double lo, double hi) {
  SPACECDN_EXPECT(lo <= hi, "uniform bounds must be ordered");
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  SPACECDN_EXPECT(lo <= hi, "uniform_int bounds must be ordered");
  std::uniform_int_distribution<std::uint64_t> d(lo, hi);
  return d(engine_);
}

bool Rng::chance(double probability) {
  SPACECDN_EXPECT(probability >= 0.0 && probability <= 1.0,
                  "probability must be within [0, 1]");
  std::bernoulli_distribution d(probability);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  SPACECDN_EXPECT(stddev >= 0.0, "stddev must be non-negative");
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::lognormal_median(double median, double sigma) {
  SPACECDN_EXPECT(median > 0.0, "lognormal median must be positive");
  SPACECDN_EXPECT(sigma >= 0.0, "lognormal sigma must be non-negative");
  if (sigma == 0.0) return median;
  std::lognormal_distribution<double> d(std::log(median), sigma);
  return d(engine_);
}

double Rng::exponential(double mean) {
  SPACECDN_EXPECT(mean > 0.0, "exponential mean must be positive");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  SPACECDN_EXPECT(!weights.empty(), "weights must not be empty");
  std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
  return d(engine_);
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  SPACECDN_EXPECT(k <= n, "cannot sample more elements than the population");
  // Partial Fisher-Yates: O(n) memory, O(k) swaps.
  std::vector<std::uint32_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0u);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j =
        static_cast<std::uint32_t>(uniform_int(i, n > 0 ? n - 1 : 0));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

ZipfDistribution::ZipfDistribution(std::uint64_t n, double s) : n_(n), s_(s) {
  SPACECDN_EXPECT(n > 0, "Zipf support must be non-empty");
  SPACECDN_EXPECT(s >= 0.0, "Zipf exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t rank = 1; rank <= n; ++rank) {
    acc += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_[rank - 1] = acc;
  }
  const double total = acc;
  for (double& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::uint64_t ZipfDistribution::sample(Rng& rng) const {
  const double u = rng.uniform(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::pmf(std::uint64_t rank) const {
  SPACECDN_EXPECT(rank >= 1 && rank <= n_, "rank out of Zipf support");
  if (rank == 1) return cdf_[0];
  return cdf_[rank - 1] - cdf_[rank - 2];
}

}  // namespace spacecdn::des
