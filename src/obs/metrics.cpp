#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace spacecdn::obs {

namespace {

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Escapes `# HELP` text: the exposition format escapes only backslash and
/// line feed there (quotes are legal verbatim, unlike in label values).
std::string escape_help(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Escapes a JSON string value.
std::string escape_json(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

/// Formats a double the shortest round-trippable way JSON accepts (no inf /
/// nan; those become 0 with a clamp, which the exporters never feed today).
std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string labels_json(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels.pairs()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += escape_json(k);
    out += "\":\"";
    out += escape_json(v);
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

// ---------------------------------------------------------------- LabelSet

LabelSet::LabelSet(std::initializer_list<std::pair<std::string, std::string>> labels)
    : labels_(labels) {
  std::sort(labels_.begin(), labels_.end());
}

LabelSet::LabelSet(std::vector<std::pair<std::string, std::string>> labels)
    : labels_(std::move(labels)) {
  std::sort(labels_.begin(), labels_.end());
}

std::string LabelSet::prometheus() const {
  if (labels_.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels_) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape_label(v) + "\"";
  }
  out += "}";
  return out;
}

// --------------------------------------------------------- HistogramMetric

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : bins_(lo, hi, bins) {}

void HistogramMetric::observe(double x) noexcept {
  summary_.add(x);
  bins_.add(x);
}

// --------------------------------------------------------- MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name, const LabelSet& labels) {
  return counters_[name][labels];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels) {
  return gauges_[name][labels];
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            const LabelSet& labels,
                                            const HistogramOptions& options) {
  auto family = histograms_.find(name);
  if (family == histograms_.end()) {
    family = histograms_.emplace(name, Family<HistogramMetric>{}).first;
    histogram_options_.emplace(name, options);
  }
  const HistogramOptions& opts = histogram_options_.at(name);
  auto stream = family->second.find(labels);
  if (stream == family->second.end()) {
    stream = family->second
                 .emplace(labels, HistogramMetric(opts.lo, opts.hi, opts.bins))
                 .first;
  }
  return stream->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const LabelSet& labels) const {
  const auto family = counters_.find(name);
  if (family == counters_.end()) return 0;
  const auto stream = family->second.find(labels);
  return stream == family->second.end() ? 0 : stream->second.value();
}

void MetricsRegistry::set_help(const std::string& name, std::string text) {
  help_[name] = std::move(text);
}

const std::string& MetricsRegistry::help(const std::string& name) const {
  static const std::string empty;
  const auto it = help_.find(name);
  return it == help_.end() ? empty : it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, family] : other.counters_) {
    for (const auto& [labels, c] : family) counter(name, labels).inc(c.value());
  }
  for (const auto& [name, family] : other.gauges_) {
    for (const auto& [labels, g] : family) gauge(name, labels).set(g.value());
  }
  for (const auto& [name, family] : other.histograms_) {
    const auto opts_it = other.histogram_options_.find(name);
    const HistogramOptions opts =
        opts_it == other.histogram_options_.end() ? HistogramOptions{} : opts_it->second;
    for (const auto& [labels, h] : family) {
      HistogramMetric& mine = histogram(name, labels, opts);
      // Re-observe bucket midpoints; moments merge exactly via OnlineSummary
      // would lose the bucket counts, so the bucketed view wins here and the
      // summary is approximated at bin centres.
      const des::Histogram& bins = h.bins();
      for (std::size_t b = 0; b < bins.bins(); ++b) {
        const double mid = 0.5 * (bins.bin_lower(b) + bins.bin_upper(b));
        for (std::uint64_t i = 0; i < bins.count(b); ++i) mine.observe(mid);
      }
    }
  }
  for (const auto& [name, text] : other.help_) {
    help_.emplace(name, text);  // first registration wins
  }
}

void MetricsRegistry::export_prometheus(std::ostream& os) const {
  // HELP precedes TYPE for every family that registered text; histograms
  // always get one (the exposition consumers the conformance test mimics
  // expect HELP+TYPE pairs on histogram families).
  const auto write_help = [&](const std::string& name, const char* fallback) {
    const auto it = help_.find(name);
    if (it != help_.end()) {
      os << "# HELP " << name << " " << escape_help(it->second) << "\n";
    } else if (fallback != nullptr) {
      os << "# HELP " << name << " " << fallback << "\n";
    }
  };
  for (const auto& [name, family] : counters_) {
    write_help(name, nullptr);
    os << "# TYPE " << name << " counter\n";
    for (const auto& [labels, c] : family) {
      os << name << labels.prometheus() << " " << c.value() << "\n";
    }
  }
  for (const auto& [name, family] : gauges_) {
    write_help(name, nullptr);
    os << "# TYPE " << name << " gauge\n";
    for (const auto& [labels, g] : family) {
      os << name << labels.prometheus() << " " << format_number(g.value()) << "\n";
    }
  }
  for (const auto& [name, family] : histograms_) {
    write_help(name, "Fixed-bin distribution (cumulative buckets).");
    os << "# TYPE " << name << " histogram\n";
    for (const auto& [labels, h] : family) {
      const des::Histogram& bins = h.bins();
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < bins.bins(); ++b) {
        cumulative += bins.count(b);
        std::vector<std::pair<std::string, std::string>> with_le = labels.pairs();
        with_le.emplace_back("le", format_number(bins.bin_upper(b)));
        os << name << "_bucket" << LabelSet(std::move(with_le)).prometheus() << " "
           << cumulative << "\n";
      }
      std::vector<std::pair<std::string, std::string>> inf = labels.pairs();
      inf.emplace_back("le", "+Inf");
      os << name << "_bucket" << LabelSet(std::move(inf)).prometheus() << " "
         << h.count() << "\n";
      os << name << "_sum" << labels.prometheus() << " " << format_number(h.sum())
         << "\n";
      os << name << "_count" << labels.prometheus() << " " << h.count() << "\n";
    }
  }
}

void MetricsRegistry::export_json(std::ostream& os) const {
  os << "{\"counters\":[";
  bool first = true;
  for (const auto& [name, family] : counters_) {
    for (const auto& [labels, c] : family) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << escape_json(name) << "\",\"labels\":"
         << labels_json(labels) << ",\"value\":" << c.value() << "}";
    }
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& [name, family] : gauges_) {
    for (const auto& [labels, g] : family) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << escape_json(name) << "\",\"labels\":"
         << labels_json(labels) << ",\"value\":" << format_number(g.value()) << "}";
    }
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& [name, family] : histograms_) {
    for (const auto& [labels, h] : family) {
      if (!first) os << ",";
      first = false;
      const des::OnlineSummary& s = h.summary();
      os << "{\"name\":\"" << escape_json(name) << "\",\"labels\":"
         << labels_json(labels) << ",\"count\":" << s.count()
         << ",\"sum\":" << format_number(h.sum())
         << ",\"mean\":" << format_number(s.mean())
         << ",\"min\":" << format_number(s.count() ? s.min() : 0.0)
         << ",\"max\":" << format_number(s.count() ? s.max() : 0.0)
         << ",\"stddev\":" << format_number(s.stddev()) << "}";
    }
  }
  os << "]}";
}

std::uint64_t MetricsRegistry::next_epoch() noexcept {
  static std::uint64_t counter = 0;
  return ++counter;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  histogram_options_.clear();
  help_.clear();
  epoch_ = next_epoch();
}

std::size_t MetricsRegistry::family_count() const noexcept {
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace spacecdn::obs
