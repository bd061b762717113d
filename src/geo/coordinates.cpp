#include "geo/coordinates.hpp"

#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace spacecdn::geo {

GeoPoint normalized(GeoPoint p) {
  SPACECDN_EXPECT(p.lat_deg >= -90.0 && p.lat_deg <= 90.0,
                  "latitude must be within [-90, 90] degrees");
  // Wrap longitude into [-180, 180).
  double lon = std::fmod(p.lon_deg + 180.0, 360.0);
  if (lon < 0) lon += 360.0;
  p.lon_deg = lon - 180.0;
  return p;
}

Kilometers norm(const Ecef& v) noexcept {
  return Kilometers{std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z)};
}

Kilometers euclidean_distance(const Ecef& a, const Ecef& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return Kilometers{std::sqrt(dx * dx + dy * dy + dz * dz)};
}

Ecef to_ecef_spherical(const GeoPoint& p) noexcept {
  const double lat = deg_to_rad(p.lat_deg);
  const double lon = deg_to_rad(p.lon_deg);
  const double r = kEarthRadiusKm + p.alt_km;
  return Ecef{r * std::cos(lat) * std::cos(lon), r * std::cos(lat) * std::sin(lon),
              r * std::sin(lat)};
}

GeoPoint to_geodetic_spherical(const Ecef& v) noexcept {
  const double r = norm(v).value();
  const double lat = std::asin(v.z / r);
  const double lon = std::atan2(v.y, v.x);
  return GeoPoint{rad_to_deg(lat), rad_to_deg(lon), r - kEarthRadiusKm};
}

std::ostream& operator<<(std::ostream& os, const GeoPoint& p) {
  return os << "(" << p.lat_deg << ", " << p.lon_deg << ", " << p.alt_km << " km)";
}

std::ostream& operator<<(std::ostream& os, const Ecef& v) {
  return os << "[" << v.x << ", " << v.y << ", " << v.z << "]";
}

}  // namespace spacecdn::geo
