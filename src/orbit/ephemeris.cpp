#include "orbit/ephemeris.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <utility>

#include "geo/batch.hpp"
#include "obs/profile.hpp"
#include "util/error.hpp"

namespace spacecdn::orbit {

namespace {

std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Per-thread elevation buffer for the batched kernels: queries run inside
// parallel routing sweeps, and thread_local keeps them allocation-free
// without sharing.
std::vector<double>& elevation_scratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace

EphemerisSnapshot::EphemerisSnapshot(const WalkerConstellation& constellation,
                                     Milliseconds t)
    : constellation_(&constellation), time_(t) {
  SPACECDN_PROFILE("EphemerisSnapshot::build");
  constellation_->positions_ecef_into(t, x_, y_, z_);
  index_.rebuild(x_, y_, z_);
  epoch_ = next_epoch();
}

void EphemerisSnapshot::advance(Milliseconds t) {
  SPACECDN_PROFILE("EphemerisSnapshot::advance");
  time_ = t;
  constellation_->positions_ecef_into(t, x_, y_, z_);
  index_.rebuild(x_, y_, z_);
  epoch_ = next_epoch();
}

geo::Ecef EphemerisSnapshot::position(std::uint32_t sat_id) const {
  SPACECDN_EXPECT(sat_id < x_.size(), "satellite id out of range");
  return geo::Ecef{x_[sat_id], y_[sat_id], z_[sat_id]};
}

double EphemerisSnapshot::query_psi_deg(double min_elevation_deg) const {
  return geo::coverage_central_angle_deg(constellation_->max_altitude(),
                                         min_elevation_deg);
}

std::vector<std::uint32_t> EphemerisSnapshot::visible_satellites(
    const geo::GeoPoint& ground, double min_elevation_deg) const {
  // Below-horizon queries have no coverage cap to bound the cells; scan.
  if (min_elevation_deg <= 0.0) return visible_satellites_scan(ground, min_elevation_deg);

  std::vector<std::uint32_t> out;
  index_.candidates(ground, query_psi_deg(min_elevation_deg), out);
  std::sort(out.begin(), out.end());

  // Batched gather over the SoA arrays: bit-identical per-element math to
  // the scalar is_visible loop, so the kept set cannot differ.
  const geo::Ecef g = geo::to_ecef_spherical(ground);
  std::vector<double>& elev = elevation_scratch();
  elev.resize(out.size());
  geo::elevation_angles_deg(g, x_, y_, z_, out, elev);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (elev[i] >= min_elevation_deg) out[kept++] = out[i];
  }
  out.resize(kept);
  return out;
}

std::optional<std::uint32_t> EphemerisSnapshot::serving_satellite(
    const geo::GeoPoint& ground, double min_elevation_deg) const {
  if (min_elevation_deg <= 0.0) return serving_satellite_scan(ground, min_elevation_deg);

  thread_local std::vector<std::uint32_t> scratch;
  scratch.clear();
  index_.candidates(ground, query_psi_deg(min_elevation_deg), scratch);

  const geo::Ecef g = geo::to_ecef_spherical(ground);
  std::vector<double>& elev = elevation_scratch();
  elev.resize(scratch.size());
  geo::elevation_angles_deg(g, x_, y_, z_, scratch, elev);
  std::optional<std::uint32_t> best;
  double best_elev = min_elevation_deg;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const std::uint32_t id = scratch[i];
    if (elev[i] < best_elev) continue;
    // Strictly-better elevation wins; an exact tie goes to the lowest id, so
    // the result does not depend on bucket enumeration order.
    if (!best || elev[i] > best_elev || id < *best) {
      best_elev = elev[i];
      best = id;
    }
  }
  return best;
}

std::vector<std::uint32_t> EphemerisSnapshot::ranked_visible_satellites(
    const geo::GeoPoint& ground, double min_elevation_deg) const {
  std::vector<std::uint32_t> ids;
  if (min_elevation_deg <= 0.0) {
    ids.resize(size());
    std::iota(ids.begin(), ids.end(), 0U);
  } else {
    index_.candidates(ground, query_psi_deg(min_elevation_deg), ids);
  }
  const geo::Ecef g = geo::to_ecef_spherical(ground);
  std::vector<double>& elev = elevation_scratch();
  elev.resize(ids.size());
  geo::elevation_angles_deg(g, x_, y_, z_, ids, elev);
  std::vector<std::pair<double, std::uint32_t>> ranked;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (elev[i] >= min_elevation_deg) ranked.emplace_back(elev[i], ids[i]);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  ids.clear();
  for (const auto& entry : ranked) ids.push_back(entry.second);
  return ids;
}

std::vector<std::uint32_t> EphemerisSnapshot::visible_satellites_scan(
    const geo::GeoPoint& ground, double min_elevation_deg) const {
  // Contiguous batch over the full SoA arrays: the whole-constellation scan
  // is exactly the shape the vectorized kernel is for.
  std::vector<std::uint32_t> out;
  const geo::Ecef g = geo::to_ecef_spherical(ground);
  std::vector<double>& elev = elevation_scratch();
  elev.resize(x_.size());
  geo::elevation_angles_deg(g, x_, y_, z_, elev);
  for (std::uint32_t id = 0; id < size(); ++id) {
    if (elev[id] >= min_elevation_deg) out.push_back(id);
  }
  return out;
}

std::optional<std::uint32_t> EphemerisSnapshot::serving_satellite_scan(
    const geo::GeoPoint& ground, double min_elevation_deg) const {
  const geo::Ecef g = geo::to_ecef_spherical(ground);
  std::vector<double>& elev = elevation_scratch();
  elev.resize(x_.size());
  geo::elevation_angles_deg(g, x_, y_, z_, elev);
  std::optional<std::uint32_t> best;
  double best_elev = min_elevation_deg;
  for (std::uint32_t id = 0; id < size(); ++id) {
    if (elev[id] < best_elev) continue;
    if (!best || elev[id] > best_elev) {  // ascending ids: ties keep the lowest id
      best_elev = elev[id];
      best = id;
    }
  }
  return best;
}

Kilometers EphemerisSnapshot::isl_distance(std::uint32_t a, std::uint32_t b) const {
  SPACECDN_EXPECT(a < x_.size() && b < x_.size(), "satellite id out of range");
  const double dx = x_[a] - x_[b];
  const double dy = y_[a] - y_[b];
  const double dz = z_[a] - z_[b];
  return Kilometers{std::sqrt(dx * dx + dy * dy + dz * dz)};
}

Kilometers EphemerisSnapshot::slant_range(const geo::GeoPoint& ground,
                                          std::uint32_t sat_id) const {
  SPACECDN_EXPECT(sat_id < x_.size(), "satellite id out of range");
  return geo::slant_range(ground, position(sat_id));
}

}  // namespace spacecdn::orbit
