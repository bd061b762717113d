// Metrics registry: named counters, gauges, and label-set histograms, with
// Prometheus-text and JSON exporters.
//
// The registry is the aggregation side of the telemetry subsystem (traces
// are the per-request side; see obs/trace.hpp).  Instrumented code resolves
// a metric by (name, label set) and bumps it; exporters walk the registry in
// deterministic (name, labels) order so diffing two runs' dumps is
// meaningful.  Histograms reuse the des statistics containers: an
// OnlineSummary for the moments plus a fixed-bin des::Histogram for the
// bucketed export.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "des/stats.hpp"

namespace spacecdn::obs {

/// Sorted (key, value) pairs identifying one stream of a metric family.
/// Construction sorts by key, so {{"b","1"},{"a","2"}} and the reverse are
/// the same stream.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> labels);
  explicit LabelSet(std::vector<std::pair<std::string, std::string>> labels);

  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& pairs()
      const noexcept {
    return labels_;
  }

  /// Prometheus form: `{key="value",...}`, or "" when empty.
  [[nodiscard]] std::string prometheus() const;

  friend bool operator<(const LabelSet& a, const LabelSet& b) {
    return a.labels_ < b.labels_;
  }
  friend bool operator==(const LabelSet& a, const LabelSet& b) {
    return a.labels_ == b.labels_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> labels_;
};

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value (may go up or down).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric: Welford moments plus fixed bins for bucketed export.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins);

  void observe(double x) noexcept;

  [[nodiscard]] const des::OnlineSummary& summary() const noexcept { return summary_; }
  [[nodiscard]] const des::Histogram& bins() const noexcept { return bins_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return summary_.count(); }
  [[nodiscard]] double sum() const noexcept {
    return summary_.mean() * static_cast<double>(summary_.count());
  }

 private:
  des::OnlineSummary summary_;
  des::Histogram bins_;
};

/// Default bucket layout for histograms created without an explicit range
/// (latencies in milliseconds: 0..10 s in 100 ms bins).
struct HistogramOptions {
  double lo = 0.0;
  double hi = 10'000.0;
  std::size_t bins = 100;
};

/// Named metric store.  Lookup lazily creates; names follow the Prometheus
/// convention (`spacecdn_fetch_total`).  Not thread-safe by design --
/// per-worker registries plus merge() is the intended path to parallel use.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name, const LabelSet& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, const LabelSet& labels = {});
  /// `options` applies only when the (name) family is first created.
  [[nodiscard]] HistogramMetric& histogram(const std::string& name,
                                           const LabelSet& labels = {},
                                           const HistogramOptions& options = {});

  /// Value of an existing counter stream, or 0 when absent (test helper).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            const LabelSet& labels = {}) const;

  /// Registers the `# HELP` text of one metric family (any kind).  The
  /// exposition escapes `\` and newlines per the Prometheus text format.
  void set_help(const std::string& name, std::string text);
  /// Registered help text, or "" when none (test helper).
  [[nodiscard]] const std::string& help(const std::string& name) const;

  /// Folds every stream of `other` into this registry (counters add, gauges
  /// take `other`'s value, histograms are re-observed bucket-wise).  The
  /// merge path for future parallel runs.
  void merge(const MetricsRegistry& other);

  /// Prometheus text exposition format (sorted by name, then labels).
  void export_prometheus(std::ostream& os) const;
  /// One JSON object: {"counters":[...],"gauges":[...],"histograms":[...]}.
  void export_json(std::ostream& os) const;

  void clear();
  [[nodiscard]] std::size_t family_count() const noexcept;

  /// Identity of the registry's current contents: process-unique at
  /// construction, refreshed by clear().  Cached-handle fast paths
  /// (obs::CounterHandle) compare this to detect a stale binding even when a
  /// new registry reuses a freed one's address.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  static std::uint64_t next_epoch() noexcept;

  std::uint64_t epoch_ = next_epoch();
  template <typename T>
  using Family = std::map<LabelSet, T>;

  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<HistogramMetric>> histograms_;
  std::map<std::string, HistogramOptions> histogram_options_;
  std::map<std::string, std::string> help_;
};

}  // namespace spacecdn::obs
