#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ostream>

#include "des/stats.hpp"

namespace spacecdn::obs {
namespace {

/// Length-prefixed, so ("ab", "c") and ("a", "bc") digest differently.
void add_string(des::Fnv1aChecksum& sum, const std::string& s) noexcept {
  sum.add_word(s.size());
  sum.add_bytes(s);
}

void write_escaped(std::ostream& os, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: os << c; break;
    }
  }
}

}  // namespace

void IncidentTimeline::record(Milliseconds at, std::string kind,
                              std::string subject, std::string detail,
                              double value) {
  events_.push_back(TimelineEvent{at, std::move(kind), std::move(subject),
                                  std::move(detail), value});
}

std::size_t IncidentTimeline::count(std::string_view kind_prefix) const {
  std::size_t n = 0;
  for (const TimelineEvent& event : events_) {
    if (std::string_view{event.kind}.substr(0, kind_prefix.size()) ==
        kind_prefix) {
      ++n;
    }
  }
  return n;
}

std::vector<std::size_t> IncidentTimeline::export_order() const {
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable: simultaneous events keep their insertion (production) order.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].at < events_[b].at;
                   });
  return order;
}

void IncidentTimeline::write_jsonl(std::ostream& os,
                                   std::string_view run) const {
  char number[64];
  for (const std::size_t index : export_order()) {
    const TimelineEvent& event = events_[index];
    os << '{';
    if (!run.empty()) {
      os << "\"run\":\"";
      write_escaped(os, run);
      os << "\",";
    }
    std::snprintf(number, sizeof(number), "%.17g", event.at.value());
    os << "\"at_ms\":" << number << ",\"kind\":\"";
    write_escaped(os, event.kind);
    os << "\",\"subject\":\"";
    write_escaped(os, event.subject);
    os << '"';
    if (!event.detail.empty()) {
      os << ",\"detail\":\"";
      write_escaped(os, event.detail);
      os << '"';
    }
    if (event.value != 0.0) {
      std::snprintf(number, sizeof(number), "%.17g", event.value);
      os << ",\"value\":" << number;
    }
    os << "}\n";
  }
}

std::uint64_t IncidentTimeline::checksum() const {
  des::Fnv1aChecksum sum;
  for (const std::size_t index : export_order()) {
    const TimelineEvent& event = events_[index];
    sum.add(event.at.value());
    add_string(sum, event.kind);
    add_string(sum, event.subject);
    add_string(sum, event.detail);
    sum.add(event.value);
  }
  return sum.digest();
}

}  // namespace spacecdn::obs
