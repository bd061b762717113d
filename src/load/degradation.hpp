// Degradation policy: what the load engine does when admission says no.
//
// AdmissionController bounds the concurrent transfers one satellite serves;
// without a policy every rejection is simply a lost request.  The policy
// turns the reject hook into load shedding: a rejecting satellite is marked
// *hot* for a window, the router's serving filter steers new arrivals to
// other visible satellites, and (under resilient fetch) the rejected request
// itself is retried once in bent-pipe-only mode -- shed to the ground tier,
// today's CDN path -- through an alternate serving satellite.  Both mechanisms trade
// a little latency for availability, which is exactly the graceful-
// degradation story the chaos scenarios measure.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::load {

/// Degradation knobs; disabled by default so existing load runs (and their
/// checksums) are untouched.
struct DegradationConfig {
  /// Master switch: mark hot satellites, install the serving filter, and
  /// (under resilient fetch) retry a rejected request once over the ground
  /// tier via an alternate serving satellite.
  bool enabled = false;
  /// How long one rejection keeps a satellite marked hot.
  Milliseconds hot_window{2'000.0};
};

/// Tracks per-satellite hot marks fed by admission rejections.
class DegradationPolicy {
 public:
  DegradationPolicy(std::uint32_t satellite_count, DegradationConfig config);

  /// Marks `satellite` hot until now + hot_window (the admission reject
  /// hook calls this).
  void on_reject(std::uint32_t satellite, Milliseconds now);

  /// Whether `satellite` is inside a hot window at `now`.
  [[nodiscard]] bool hot(std::uint32_t satellite, Milliseconds now) const;

  /// Distinct times a satellite entered a hot window (re-marks inside an
  /// active window only extend it).
  [[nodiscard]] std::uint64_t hot_marks() const noexcept { return hot_marks_; }

  /// Satellites currently inside a hot window (a series-recorder gauge).
  [[nodiscard]] std::size_t hot_count(Milliseconds now) const noexcept;

  [[nodiscard]] const DegradationConfig& config() const noexcept { return config_; }

 private:
  DegradationConfig config_;
  /// Per-satellite hot-until timestamp; <= now means not hot.
  std::vector<Milliseconds> hot_until_;
  std::uint64_t hot_marks_ = 0;
};

}  // namespace spacecdn::load
