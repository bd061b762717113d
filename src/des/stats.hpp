// Statistics containers used throughout the analysis code: running summaries
// (Welford), quantile sample sets, CDF extraction, and fixed-bin histograms.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace spacecdn::des {

/// Running mean/variance/min/max without storing samples (Welford's method).
class OnlineSummary {
 public:
  void add(double x) noexcept;

  /// Folds `other` into this summary (Chan et al.'s parallel Welford
  /// combine): the result matches accumulating both streams into one
  /// summary, so per-shard summaries can be merged after a parallel run.
  void merge(const OnlineSummary& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number summary plus mean; what the figure benches print for box
/// plots (paper Figures 5 and 8).
struct BoxStats {
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::uint64_t count = 0;
};

/// One (x, P(X <= x)) point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double cumulative_probability = 0.0;
};

/// Stores samples and answers quantile / CDF queries.
///
/// Quantiles use linear interpolation between order statistics (type-7, the
/// numpy/R default).  Sorting is deferred and incremental: a query after
/// k appends sorts those k and merges them into the sorted copy, so a
/// trailing quantile re-read as samples stream in costs O(n + k log k).
class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<double> samples);

  void add(double x);
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] const std::vector<double>& raw() const noexcept { return samples_; }

  /// Quantile q in [0, 1].  @throws spacecdn::ConfigError if empty or q is
  /// out of range.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  [[nodiscard]] BoxStats box_stats() const;

  /// `points` evenly spaced CDF points (at probabilities 1/points .. 1).
  [[nodiscard]] std::vector<CdfPoint> cdf(std::size_t points = 100) const;

  /// Fraction of samples <= threshold.
  [[nodiscard]] double fraction_below(double threshold) const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  /// samples_[0, sorted_.size()) in ascending order.
  mutable std::vector<double> sorted_;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp to
/// the edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lower(std::size_t bin) const;
  [[nodiscard]] double bin_upper(std::size_t bin) const;

  /// Renders an ASCII sketch, one line per bin.
  void render(std::ostream& os, int width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Order-sensitive 64-bit FNV-1a digest, the repo's one determinism
/// witness.  Sharded sweeps feed it their merged samples: serial and
/// parallel runs must produce the same digest because the merge order, not
/// the execution order, defines the stream.
class Fnv1aChecksum {
 public:
  /// Folds the eight bytes of `word`, least significant first.
  void add_word(std::uint64_t word) noexcept;
  /// Folds each byte of `bytes` in order (no length prefix).
  void add_bytes(std::string_view bytes) noexcept;
  /// add_word of the IEEE-754 bit pattern of `value`.
  void add(double value) noexcept;

  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

  /// "0x"-prefixed, zero-padded hex rendering of digest().
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace spacecdn::des
