// Unified incident timeline: one sim-time-ordered event log per run.
//
// Every subsystem that does something operationally interesting -- fault
// injection firing, a circuit breaker opening, degradation hot-marking a
// satellite, the flight recorder tripping, an SLO burn-rate alert paging --
// records a TimelineEvent here.  The result is a single JSONL stream that
// explains an incident after the fact: injection -> breaker-open -> shed ->
// recovery, all stamped in simulation time.  tools/render_timeline.py turns
// the stream into an ASCII or markdown narrative.
//
// The timeline is plain data owned by whoever drives the run (one per
// LoadRunner).  Events are kept in insertion order and stably sorted by
// sim-time at export, so producers never need to coordinate and the stream
// is deterministic: same run, same bytes.  checksum() digests the canonical
// serialization so CI can gate serial-vs-parallel bit-equality on timelines
// the same way it gates figure CSVs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::obs {

/// One timeline entry.  `kind` is a dotted category string -- the producers
/// use "fault.fail", "fault.recover", "breaker.open", "breaker.half-open",
/// "breaker.closed", "degradation.hot-mark", "degradation.shed",
/// "flight-recorder.trip", "slo.alert-fire", "slo.alert-resolve",
/// "surge.begin", "surge.end" -- so consumers can filter by prefix.
struct TimelineEvent {
  Milliseconds at{0.0};
  std::string kind;
  std::string subject;  ///< affected component, e.g. "gateway:12"
  std::string detail;   ///< free-form human context (may be empty)
  double value = 0.0;   ///< optional numeric payload (burn rate, count)
};

class IncidentTimeline {
 public:
  void record(Milliseconds at, std::string kind, std::string subject,
              std::string detail = {}, double value = 0.0);

  [[nodiscard]] const std::vector<TimelineEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events whose kind starts with `kind_prefix` ("breaker." counts every
  /// breaker transition; an exact kind counts just that kind).
  [[nodiscard]] std::size_t count(std::string_view kind_prefix) const;

  /// Writes the events in (sim-time, insertion) order, one JSON object per
  /// line.  A non-empty `run` label is added to every line so artifacts
  /// merging several runs (the chaos benches' on/ablated points) stay
  /// self-describing.
  void write_jsonl(std::ostream& os, std::string_view run = {}) const;

  /// FNV-1a digest over the canonical event serialization in export order
  /// (excluding the run label): the CI determinism witness.
  [[nodiscard]] std::uint64_t checksum() const;

 private:
  /// Event indices stably sorted by sim-time (export order).
  [[nodiscard]] std::vector<std::size_t> export_order() const;

  std::vector<TimelineEvent> events_;
};

}  // namespace spacecdn::obs
