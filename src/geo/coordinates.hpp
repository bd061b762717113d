// Geodetic and Cartesian coordinate types with conversions.
//
// The Earth is a sphere of mean radius R = 6371 km (kEarthRadiusKm): orbits
// are circles around its centre, and sites, gateways and users sit on its
// surface.  The WGS-84 ellipsoid's radius departs from R by at most ~14 km
// (at the poles); the model does not use it.
#pragma once

#include <iosfwd>

#include "geo/earth.hpp"
#include "util/units.hpp"

namespace spacecdn::geo {

/// A point given by geodetic latitude/longitude (degrees) and altitude above
/// the surface (km).  Invariant: lat in [-90, 90], lon in [-180, 180].
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
  double alt_km = 0.0;

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

/// Earth-centred Earth-fixed Cartesian coordinates in km.
struct Ecef {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend bool operator==(const Ecef&, const Ecef&) = default;
};

/// Validates and normalises a GeoPoint: clamps latitude into [-90, 90] is NOT
/// done silently -- out-of-range latitude throws; longitude is wrapped into
/// [-180, 180).
[[nodiscard]] GeoPoint normalized(GeoPoint p);

/// Euclidean norm of an ECEF vector (km).
[[nodiscard]] Kilometers norm(const Ecef& v) noexcept;

/// Straight-line (chord) distance between two ECEF points (km).
[[nodiscard]] Kilometers euclidean_distance(const Ecef& a, const Ecef& b) noexcept;

/// Spherical-Earth conversion: geodetic -> ECEF with radius R + alt.
[[nodiscard]] Ecef to_ecef_spherical(const GeoPoint& p) noexcept;

/// Spherical-Earth inverse conversion.
[[nodiscard]] GeoPoint to_geodetic_spherical(const Ecef& v) noexcept;

std::ostream& operator<<(std::ostream& os, const GeoPoint& p);
std::ostream& operator<<(std::ostream& os, const Ecef& v);

}  // namespace spacecdn::geo
