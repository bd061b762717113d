// Unit tests for the geo module: coordinates, great circles, visibility,
// propagation delays.  Reference values are hand-computed or from standard
// geodesy tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "geo/batch.hpp"
#include "geo/coordinates.hpp"
#include "geo/distance.hpp"
#include "geo/propagation.hpp"
#include "geo/visibility.hpp"
#include "util/error.hpp"

namespace spacecdn::geo {
namespace {

TEST(Coordinates, NormalizedWrapsLongitude) {
  EXPECT_DOUBLE_EQ(normalized({0.0, 190.0, 0.0}).lon_deg, -170.0);
  EXPECT_DOUBLE_EQ(normalized({0.0, -190.0, 0.0}).lon_deg, 170.0);
  EXPECT_DOUBLE_EQ(normalized({0.0, 360.0, 0.0}).lon_deg, 0.0);
}

TEST(Coordinates, NormalizedRejectsBadLatitude) {
  EXPECT_THROW((void)normalized({91.0, 0.0, 0.0}), ConfigError);
  EXPECT_THROW((void)normalized({-90.5, 0.0, 0.0}), ConfigError);
}

TEST(Coordinates, SphericalRoundTrip) {
  const GeoPoint p{47.3, -122.5, 550.0};
  const GeoPoint back = to_geodetic_spherical(to_ecef_spherical(p));
  EXPECT_NEAR(back.lat_deg, p.lat_deg, 1e-9);
  EXPECT_NEAR(back.lon_deg, p.lon_deg, 1e-9);
  EXPECT_NEAR(back.alt_km, p.alt_km, 1e-6);
}

TEST(Coordinates, SphericalEquatorPrimeMeridian) {
  const Ecef v = to_ecef_spherical({0.0, 0.0, 0.0});
  EXPECT_NEAR(v.x, kEarthRadiusKm, 1e-9);
  EXPECT_NEAR(v.y, 0.0, 1e-9);
  EXPECT_NEAR(v.z, 0.0, 1e-9);
}

TEST(Coordinates, SphericalNorthPole) {
  const Ecef v = to_ecef_spherical({90.0, 0.0, 0.0});
  EXPECT_NEAR(v.x, 0.0, 1e-9);
  EXPECT_NEAR(v.z, kEarthRadiusKm, 1e-9);
}

TEST(Coordinates, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(euclidean_distance({0, 0, 0}, {3, 4, 0}).value(), 5.0);
  EXPECT_DOUBLE_EQ(norm({1, 2, 2}).value(), 3.0);
}

TEST(Distance, KnownCityPairs) {
  // London - Paris: ~343 km great circle.
  const GeoPoint london{51.51, -0.13, 0.0};
  const GeoPoint paris{48.86, 2.35, 0.0};
  EXPECT_NEAR(great_circle_distance(london, paris).value(), 343.0, 10.0);

  // New York - Los Angeles: ~3940 km.
  const GeoPoint nyc{40.71, -74.01, 0.0};
  const GeoPoint la{34.05, -118.24, 0.0};
  EXPECT_NEAR(great_circle_distance(nyc, la).value(), 3940.0, 40.0);
}

TEST(Distance, AntipodalIsHalfCircumference) {
  const GeoPoint a{0.0, 0.0, 0.0};
  const GeoPoint b{0.0, 180.0, 0.0};
  EXPECT_NEAR(great_circle_distance(a, b).value(), kPi * kEarthRadiusKm, 1e-6);
}

TEST(Distance, ZeroForIdenticalPoints) {
  const GeoPoint p{12.3, 45.6, 0.0};
  EXPECT_DOUBLE_EQ(great_circle_distance(p, p).value(), 0.0);
}

TEST(Distance, BearingCardinalDirections) {
  const GeoPoint origin{0.0, 0.0, 0.0};
  EXPECT_NEAR(initial_bearing_deg(origin, {10.0, 0.0, 0.0}), 0.0, 1e-9);    // north
  EXPECT_NEAR(initial_bearing_deg(origin, {0.0, 10.0, 0.0}), 90.0, 1e-9);   // east
  EXPECT_NEAR(initial_bearing_deg(origin, {-10.0, 0.0, 0.0}), 180.0, 1e-9); // south
  EXPECT_NEAR(initial_bearing_deg(origin, {0.0, -10.0, 0.0}), 270.0, 1e-9); // west
}

TEST(Distance, DestinationInverse) {
  const GeoPoint origin{48.86, 2.35, 0.0};
  const GeoPoint dest = destination(origin, 45.0, Kilometers{500.0});
  EXPECT_NEAR(great_circle_distance(origin, dest).value(), 500.0, 0.5);
  EXPECT_NEAR(initial_bearing_deg(origin, dest), 45.0, 0.5);
}

TEST(Distance, IntermediatePointEndpoints) {
  const GeoPoint a{10.0, 20.0, 0.0};
  const GeoPoint b{-30.0, 60.0, 0.0};
  const GeoPoint p0 = intermediate_point(a, b, 0.0);
  const GeoPoint p1 = intermediate_point(a, b, 1.0);
  EXPECT_NEAR(p0.lat_deg, a.lat_deg, 1e-9);
  EXPECT_NEAR(p1.lat_deg, b.lat_deg, 1e-9);
}

TEST(Distance, IntermediateMidpointEquidistant) {
  const GeoPoint a{0.0, 0.0, 0.0};
  const GeoPoint b{0.0, 90.0, 0.0};
  const GeoPoint mid = intermediate_point(a, b, 0.5);
  EXPECT_NEAR(great_circle_distance(a, mid).value(),
              great_circle_distance(mid, b).value(), 1e-6);
}

TEST(Visibility, ZenithSatellite) {
  const GeoPoint ground{30.0, 40.0, 0.0};
  GeoPoint above = ground;
  above.alt_km = 550.0;
  const Ecef sat = to_ecef_spherical(above);
  EXPECT_NEAR(elevation_angle_deg(ground, sat), 90.0, 1e-6);
  EXPECT_NEAR(slant_range(ground, sat).value(), 550.0, 1e-6);
  EXPECT_TRUE(is_visible(ground, sat, 25.0));
}

TEST(Visibility, BelowHorizonIsNegative) {
  const GeoPoint ground{0.0, 0.0, 0.0};
  // Satellite on the other side of the planet.
  const Ecef sat = to_ecef_spherical({0.0, 180.0, 550.0});
  EXPECT_LT(elevation_angle_deg(ground, sat), 0.0);
  EXPECT_FALSE(is_visible(ground, sat, 10.0));
}

TEST(Visibility, SlantRangeAtElevationLimits) {
  // At 90 degrees, slant range equals altitude.
  EXPECT_NEAR(slant_range_at_elevation(Kilometers{550.0}, 90.0).value(), 550.0, 1e-6);
  // At 0 degrees, range is the horizon distance sqrt((R+h)^2 - R^2) ~ 2704 km.
  EXPECT_NEAR(slant_range_at_elevation(Kilometers{550.0}, 0.0).value(), 2704.0, 5.0);
}

TEST(Visibility, SlantRangeMonotonicInElevation) {
  double prev = slant_range_at_elevation(Kilometers{550.0}, 5.0).value();
  for (double e = 10.0; e <= 90.0; e += 5.0) {
    const double cur = slant_range_at_elevation(Kilometers{550.0}, e).value();
    EXPECT_LT(cur, prev) << "elevation " << e;
    prev = cur;
  }
}

TEST(Visibility, CoverageRadiusShrinksWithElevationMask) {
  const Kilometers r25 = coverage_radius(Kilometers{550.0}, 25.0);
  const Kilometers r10 = coverage_radius(Kilometers{550.0}, 10.0);
  EXPECT_LT(r25, r10);
  // Starlink 550 km / 25 deg: ~940 km footprint radius.
  EXPECT_NEAR(r25.value(), 940.0, 60.0);
}

TEST(Visibility, ElevationMatchesSlantRangeGeometry) {
  // Consistency: place a satellite at a given elevation, verify range.
  const GeoPoint ground{0.0, 0.0, 0.0};
  // Satellite 5 degrees of central angle east at 550 km.
  const Ecef sat = to_ecef_spherical({0.0, 5.0, 550.0});
  const double elev = elevation_angle_deg(ground, sat);
  const double expected_range = slant_range_at_elevation(Kilometers{550.0}, elev).value();
  EXPECT_NEAR(slant_range(ground, sat).value(), expected_range, 1e-6);
}

TEST(Propagation, SpeedsAreOrdered) {
  EXPECT_GT(propagation_speed_km_per_sec(Medium::kVacuum),
            propagation_speed_km_per_sec(Medium::kFiber));
}

TEST(Propagation, KnownDelays) {
  // 299792.458 km at c = 1000 ms.
  EXPECT_NEAR(propagation_delay(Kilometers{299792.458}, Medium::kVacuum).value(), 1000.0,
              1e-9);
  // 1000 km of fiber: ~4.9 ms.
  EXPECT_NEAR(propagation_delay(Kilometers{1000.0}, Medium::kFiber).value(), 4.9, 0.1);
}

// Batched SoA kernels must be *bit-identical* to the scalar reference --
// exact elevation ties break by satellite id, so a one-ulp drift could flip
// a serving-satellite choice and a committed run checksum.
TEST(BatchGeometry, ElevationsBitIdenticalToScalar) {
  const Ecef ground = to_ecef_spherical(GeoPoint{37.7749, -122.4194});
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> zs;
  for (int i = 0; i < 64; ++i) {
    // A ring of positions from zenith to well below the horizon, plus the
    // degenerate coincident point (index 0).
    const double lat = -80.0 + 2.5 * i;
    const double lon = -170.0 + 5.0 * i;
    const Ecef sat =
        i == 0 ? ground : to_ecef_spherical(GeoPoint{lat, lon, 300.0 + 20.0 * i});
    xs.push_back(sat.x);
    ys.push_back(sat.y);
    zs.push_back(sat.z);
  }
  std::vector<double> batched(xs.size());
  elevation_angles_deg(ground, xs, ys, zs, batched);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double scalar = elevation_angle_deg(ground, Ecef{xs[i], ys[i], zs[i]});
    EXPECT_EQ(batched[i], scalar) << "elevation drifted at index " << i;
  }
  EXPECT_EQ(batched[0], 90.0);  // coincident point: straight up by convention

  // Gathered variant: a shuffled id subset reads the same values.
  const std::vector<std::uint32_t> ids{63, 0, 17, 17, 4};
  std::vector<double> gathered(ids.size());
  elevation_angles_deg(ground, xs, ys, zs, ids, gathered);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(gathered[i], batched[ids[i]]);
  }
}

TEST(BatchGeometry, SlantRangesBitIdenticalToEuclidean) {
  const Ecef ground = to_ecef_spherical(GeoPoint{51.5074, -0.1278});
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> zs;
  for (int i = 0; i < 33; ++i) {
    const Ecef sat =
        to_ecef_spherical(GeoPoint{-60.0 + 4.0 * i, 11.0 * i, 550.0 + 3.0 * i});
    xs.push_back(sat.x);
    ys.push_back(sat.y);
    zs.push_back(sat.z);
  }
  std::vector<double> ranges(xs.size());
  slant_ranges_km(ground, xs, ys, zs, ranges);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(ranges[i],
              euclidean_distance(ground, Ecef{xs[i], ys[i], zs[i]}).value());
  }
}

}  // namespace
}  // namespace spacecdn::geo
