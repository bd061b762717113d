// Bent-pipe route computation: user terminal -> serving satellite -> (ISLs)
// -> gateway satellite -> gateway -> terrestrial haul -> assigned PoP ->
// terrestrial Internet to the destination.
//
// This is the data path every Starlink packet takes today (paper section 2)
// and the baseline SpaceCDN is compared against.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/types.hpp"
#include "lsn/ground_segment.hpp"
#include "lsn/isl_network.hpp"

namespace spacecdn::lsn {

/// One-way component breakdown of a routed connection.
struct RouteBreakdown {
  std::uint32_t serving_satellite = 0;  ///< satellite above the user
  std::uint32_t landing_satellite = 0;  ///< satellite above the chosen gateway
  std::size_t gateway = 0;
  std::size_t pop = 0;
  std::uint32_t isl_hops = 0;

  Milliseconds uplink{0.0};        ///< user terminal -> serving satellite
  Milliseconds isl{0.0};           ///< serving -> landing satellite over ISLs
  Milliseconds downlink{0.0};      ///< landing satellite -> gateway
  Milliseconds gateway_haul{0.0};  ///< gateway -> PoP (terrestrial)
  Milliseconds pop_to_destination{0.0};

  /// One-way latency up to the PoP (the LSN-internal part).
  [[nodiscard]] Milliseconds one_way_to_pop() const noexcept {
    return uplink + isl + downlink + gateway_haul;
  }
  /// Full one-way latency to the destination.
  [[nodiscard]] Milliseconds one_way() const noexcept {
    return one_way_to_pop() + pop_to_destination;
  }
  /// Propagation round trip (excludes the access-layer overhead, which the
  /// StarlinkAccess model samples).
  [[nodiscard]] Milliseconds propagation_rtt() const noexcept { return one_way() * 2.0; }
};

/// Computes bent-pipe routes over one ephemeris snapshot.
class BentPipeRouter {
 public:
  /// @param gateway_min_elevation_deg  gateways use larger dishes and track
  /// lower elevations than user terminals.
  BentPipeRouter(const GroundSegment& ground, const IslNetwork& isl,
                 double user_min_elevation_deg = 25.0,
                 double gateway_min_elevation_deg = 10.0);

  /// Routes from a client towards its assigned PoP and on to `destination`.
  /// Returns nullopt when the client has no satellite in view or no gateway
  /// is reachable.
  [[nodiscard]] std::optional<RouteBreakdown> route(
      const geo::GeoPoint& client, const data::CountryInfo& country,
      const geo::GeoPoint& destination) const;

  /// Route terminating at the PoP itself (destination co-located with PoP);
  /// useful for PoP-assignment diagnostics.
  [[nodiscard]] std::optional<RouteBreakdown> route_to_pop(
      const geo::GeoPoint& client, const data::CountryInfo& country) const;

  /// Like route_to_pop, but starting from a caller-chosen serving satellite.
  /// The resilience layer uses this to route around an offline
  /// highest-elevation satellite that route_to_pop would have picked.
  [[nodiscard]] std::optional<RouteBreakdown> route_from_satellite(
      std::uint32_t serving, const geo::GeoPoint& client,
      const data::CountryInfo& country) const;

  [[nodiscard]] const GroundSegment& ground() const noexcept { return *ground_; }
  [[nodiscard]] const IslNetwork& isl() const noexcept { return *isl_; }

 private:
  /// The client-independent part of a route from `serving` to `pop`: landing
  /// satellite, gateway, ISL, downlink and haul legs, and ISL hop count.
  struct Leg {
    std::uint32_t landing_satellite = 0;
    std::uint32_t isl_hops = 0;
    std::size_t gateway = 0;
    Milliseconds isl{0.0};
    Milliseconds downlink{0.0};
    Milliseconds gateway_haul{0.0};
  };

  /// What a route depends on besides the client: the ephemeris snapshot
  /// (landing visibility, slant ranges), the ISL topology (SSSP distances)
  /// and the gateway failure flags.
  struct ValidityKey {
    std::uint64_t snapshot_epoch = 0;
    std::uint64_t topology_epoch = 0;
    std::uint64_t failure_version = 0;
    bool operator==(const ValidityKey&) const = default;
  };

  using LandingLists = std::vector<std::vector<std::uint32_t>>;  ///< per gateway

  [[nodiscard]] ValidityKey current_key() const noexcept;

  /// The memoised leg from `serving` to `pop` (nullopt: no gateway is
  /// reachable).  Thread-safe: a miss computes outside the lock, because it
  /// may run a Dijkstra, and inserts first-writer-wins, which is safe
  /// because legs are deterministic.
  [[nodiscard]] std::optional<Leg> leg(std::uint32_t serving, std::size_t pop) const;

  /// Scans every live gateway and its visible landing satellites for the
  /// minimum ISL + downlink + haul total.
  [[nodiscard]] std::optional<Leg> compute_leg(std::uint32_t serving, std::size_t pop,
                                               const LandingLists& landing) const;

  const GroundSegment* ground_;
  const IslNetwork* isl_;
  double user_min_elevation_deg_;
  double gateway_min_elevation_deg_;
  /// Landing lists and legs, valid for exactly one ValidityKey and refreshed
  /// lazily on the first query after an ephemeris advance, a satellite
  /// fail/recover or a gateway flip.  Snapshot epochs are process-globally
  /// monotonic, so the key cannot suffer the ABA hazard of a {snapshot
  /// address, time} key.  The lists are shared so a miss
  /// computing outside the lock keeps them alive across a refresh.
  mutable std::mutex gateway_mutex_;
  mutable ValidityKey memo_key_;
  mutable std::shared_ptr<const LandingLists> landing_;
  /// serving * pop_count + pop -> leg.
  mutable std::unordered_map<std::uint64_t, std::optional<Leg>> legs_;
};

}  // namespace spacecdn::lsn
