// Physical constants of the Earth and signal propagation media.
#pragma once

namespace spacecdn::geo {

/// Mean Earth radius in km (IUGG), used by the spherical-Earth model that the
/// constellation simulator operates on.
inline constexpr double kEarthRadiusKm = 6371.0;

/// Earth rotation rate (rad/s), sidereal.
inline constexpr double kEarthRotationRadPerSec = 7.2921159e-5;

/// Standard gravitational parameter of the Earth, km^3/s^2.
inline constexpr double kEarthMuKm3PerS2 = 398600.4418;

/// Speed of light in vacuum, km/s.  Governs free-space radio and optical ISL
/// propagation.
inline constexpr double kSpeedOfLightKmPerSec = 299792.458;

/// Effective propagation speed in optical fiber (refractive index ~1.468).
inline constexpr double kFiberSpeedKmPerSec = kSpeedOfLightKmPerSec / 1.468;

inline constexpr double kPi = 3.14159265358979323846;

[[nodiscard]] constexpr double deg_to_rad(double deg) noexcept { return deg * kPi / 180.0; }
[[nodiscard]] constexpr double rad_to_deg(double rad) noexcept { return rad * 180.0 / kPi; }

}  // namespace spacecdn::geo
