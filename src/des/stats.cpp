#include "des/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <ostream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace spacecdn::des {

void OnlineSummary::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineSummary::merge(const OnlineSummary& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  const double delta = other.mean_ - mean_;
  mean_ += delta * (n2 / n);
  m2_ += other.m2_ + delta * delta * (n1 * n2 / n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double OnlineSummary::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineSummary::stddev() const noexcept { return std::sqrt(variance()); }

SampleSet::SampleSet(std::vector<double> samples) : samples_(std::move(samples)) {}

void SampleSet::add(double x) { samples_.push_back(x); }

void SampleSet::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
}

void SampleSet::ensure_sorted() const {
  const std::size_t sorted = sorted_.size();
  if (sorted == samples_.size()) return;
  // Samples are only ever appended, so sorted_ is a sorted prefix: sort the
  // new tail alone and merge it in.
  sorted_.insert(sorted_.end(), samples_.begin() + static_cast<std::ptrdiff_t>(sorted),
                 samples_.end());
  const auto middle = sorted_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::sort(middle, sorted_.end());
  std::inplace_merge(sorted_.begin(), middle, sorted_.end());
}

double SampleSet::quantile(double q) const {
  SPACECDN_EXPECT(!samples_.empty(), "quantile of an empty sample set");
  SPACECDN_EXPECT(q >= 0.0 && q <= 1.0, "quantile must be within [0, 1]");
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double SampleSet::mean() const {
  SPACECDN_EXPECT(!samples_.empty(), "mean of an empty sample set");
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

BoxStats SampleSet::box_stats() const {
  return BoxStats{min(),  quantile(0.25), median(),
                  quantile(0.75), max(), mean(), samples_.size()};
}

std::vector<CdfPoint> SampleSet::cdf(std::size_t points) const {
  SPACECDN_EXPECT(points > 0, "CDF must have at least one point");
  std::vector<CdfPoint> out;
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(points);
    out.push_back(CdfPoint{quantile(p), p});
  }
  return out;
}

double SampleSet::fraction_below(double threshold) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), threshold);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  SPACECDN_EXPECT(hi > lo, "histogram range must be non-empty");
  SPACECDN_EXPECT(bins > 0, "histogram must have at least one bin");
  counts_.resize(bins, 0);
}

void Histogram::add(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<long>((x - lo_) / width);
  bin = std::clamp(bin, 0L, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::uint64_t Histogram::count(std::size_t bin) const {
  SPACECDN_EXPECT(bin < counts_.size(), "histogram bin out of range");
  return counts_[bin];
}

double Histogram::bin_lower(std::size_t bin) const {
  SPACECDN_EXPECT(bin < counts_.size(), "histogram bin out of range");
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_upper(std::size_t bin) const { return bin_lower(bin) + (hi_ - lo_) / static_cast<double>(counts_.size()); }

void Histogram::render(std::ostream& os, int width) const {
  const std::uint64_t peak = counts_.empty()
                                 ? 0
                                 : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    char label[64];
    std::snprintf(label, sizeof label, "[%8.1f, %8.1f)", bin_lower(b), bin_upper(b));
    os << ascii_bar(label, static_cast<double>(counts_[b]),
                    static_cast<double>(peak), width)
       << '\n';
  }
}

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

void Fnv1aChecksum::add_word(std::uint64_t word) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    hash_ ^= (word >> shift) & 0xffU;
    hash_ *= kFnvPrime;
  }
}

void Fnv1aChecksum::add_bytes(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= kFnvPrime;
  }
}

void Fnv1aChecksum::add(double value) noexcept {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  add_word(bits);
}

std::string Fnv1aChecksum::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace spacecdn::des
