// Ephemeris snapshots: all satellite positions at an instant, plus the
// geometric queries every higher layer needs (serving satellite selection,
// visibility lists, ISL lengths).
//
// Positions live in struct-of-arrays form (separate x/y/z km vectors) with a
// spatial-grid visibility index over sub-satellite points, so ground-side
// queries inspect only the grid cells within the constellation's coverage
// cap instead of scanning every satellite.  Snapshots advance in place
// (buffers reused, same propagation math as fresh construction, so positions
// are bit-identical) and carry a process-globally monotonic epoch that
// downstream caches key on — a pointer or a time value can recur after a
// rebuild (ABA), an epoch cannot.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/visibility.hpp"
#include "orbit/visibility_index.hpp"
#include "orbit/walker.hpp"

namespace spacecdn::orbit {

/// Snapshot of a constellation at a single simulation time.  Immutable except
/// through advance(), which re-propagates every orbit to a new time in place.
class EphemerisSnapshot {
 public:
  EphemerisSnapshot(const WalkerConstellation& constellation, Milliseconds t);

  [[nodiscard]] Milliseconds time() const noexcept { return time_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(x_.size());
  }
  /// Monotonic generation counter, unique across every snapshot construction
  /// and advance() in the process.  Cache keys MUST use this, never the
  /// snapshot's address or time.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const WalkerConstellation& constellation() const noexcept {
    return *constellation_;
  }

  [[nodiscard]] geo::Ecef position(std::uint32_t sat_id) const;

  /// SoA position columns (ECEF km, indexed by satellite id), the inputs the
  /// batched geometry kernels (geo/batch.hpp) stream over.
  [[nodiscard]] std::span<const double> xs() const noexcept { return x_; }
  [[nodiscard]] std::span<const double> ys() const noexcept { return y_; }
  [[nodiscard]] std::span<const double> zs() const noexcept { return z_; }

  /// Re-propagate all orbits to time `t`, reusing the position buffers and
  /// rebuilding the visibility index.  Positions equal a freshly-constructed
  /// snapshot's bit for bit (identical per-orbit math); epoch() changes.
  void advance(Milliseconds t);

  /// Ids of all satellites visible from `ground` at >= `min_elevation_deg`,
  /// ascending.  Answered through the spatial index; identical to
  /// visible_satellites_scan.
  [[nodiscard]] std::vector<std::uint32_t> visible_satellites(
      const geo::GeoPoint& ground, double min_elevation_deg) const;

  /// The serving satellite: highest elevation at or above
  /// `min_elevation_deg`, or nullopt when none qualifies (coverage gap).
  /// Exact elevation ties break toward the LOWEST satellite id, so the
  /// answer is independent of candidate enumeration order.
  [[nodiscard]] std::optional<std::uint32_t> serving_satellite(
      const geo::GeoPoint& ground, double min_elevation_deg) const;

  /// Ids of all satellites visible from `ground` at >= `min_elevation_deg`
  /// in serving rank order: highest elevation first, exact ties toward the
  /// lowest id, so front() is serving_satellite()'s answer.  Elevations come
  /// from the same batched kernel as serving_satellite.
  [[nodiscard]] std::vector<std::uint32_t> ranked_visible_satellites(
      const geo::GeoPoint& ground, double min_elevation_deg) const;

  /// Brute-force O(N) reference implementations: same contract and same
  /// results as the indexed queries.  Kept for equivalence tests and the
  /// speedup micro-benchmarks.
  [[nodiscard]] std::vector<std::uint32_t> visible_satellites_scan(
      const geo::GeoPoint& ground, double min_elevation_deg) const;
  [[nodiscard]] std::optional<std::uint32_t> serving_satellite_scan(
      const geo::GeoPoint& ground, double min_elevation_deg) const;

  /// Straight-line distance between two satellites (ISL length).
  [[nodiscard]] Kilometers isl_distance(std::uint32_t a, std::uint32_t b) const;

  /// Slant range from a ground point to a satellite.
  [[nodiscard]] Kilometers slant_range(const geo::GeoPoint& ground,
                                       std::uint32_t sat_id) const;

 private:
  /// Coverage cap radius (deg) bounding the index query for a ground-side
  /// visibility question at `min_elevation_deg`.
  [[nodiscard]] double query_psi_deg(double min_elevation_deg) const;

  const WalkerConstellation* constellation_;
  Milliseconds time_;
  std::vector<double> x_, y_, z_;  ///< ECEF km, indexed by satellite id
  VisibilityIndex index_;
  std::uint64_t epoch_ = 0;
};

}  // namespace spacecdn::orbit
