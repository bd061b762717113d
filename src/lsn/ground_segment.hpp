// The LSN ground segment: gateways (ground stations) and points of presence.
//
// Traffic leaves the constellation at a gateway, is hauled terrestrially to
// the subscriber's assigned PoP (where the public IP lives, behind carrier-
// grade NAT), and only there enters the Internet.  This indirection is the
// mechanism behind the paper's headline finding: CDNs localise LSN users at
// the PoP, not at their homes.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "data/datasets.hpp"
#include "orbit/ephemeris.hpp"
#include "terrestrial/backbone.hpp"

namespace spacecdn::lsn {

/// Gateways + PoPs with the queries routing needs.
class GroundSegment {
 public:
  /// Uses the embedded Starlink datasets and a backbone model for
  /// gateway-to-PoP hauling.
  explicit GroundSegment(terrestrial::BackboneConfig backbone = {});

  /// Custom infrastructure (tests, what-if studies).
  GroundSegment(std::vector<data::GroundStationInfo> gateways,
                std::vector<data::PopInfo> pops, terrestrial::BackboneConfig backbone);

  [[nodiscard]] std::size_t gateway_count() const noexcept { return gateways_.size(); }
  [[nodiscard]] std::size_t pop_count() const noexcept { return pops_.size(); }

  /// Marks a gateway down (fiber cut, teleport outage) or back up.  Routing
  /// skips failed gateways; the antennas and datasets stay in place so
  /// recovery is instant.
  void set_gateway_failed(std::size_t gateway_index, bool failed);
  [[nodiscard]] bool gateway_failed(std::size_t gateway_index) const;
  [[nodiscard]] std::size_t failed_gateway_count() const noexcept;
  /// Bumped whenever a gateway's failure flag flips; routers key memoised
  /// routes on it.
  [[nodiscard]] std::uint64_t failure_version() const noexcept {
    return failure_version_;
  }

  [[nodiscard]] const data::GroundStationInfo& gateway(std::size_t i) const;
  [[nodiscard]] const data::PopInfo& pop(std::size_t i) const;
  [[nodiscard]] const terrestrial::Backbone& backbone() const noexcept { return backbone_; }

  /// Index of a PoP by key.  @throws spacecdn::NotFoundError.
  [[nodiscard]] std::size_t pop_index(std::string_view key) const;

  /// Index of the geographically nearest PoP to a point.
  [[nodiscard]] std::size_t nearest_pop(const geo::GeoPoint& point) const;

  /// The PoP a subscriber in `country` is assigned to (the CGNAT mapping):
  /// the country's configured PoP, or the nearest PoP when unset.
  [[nodiscard]] std::size_t assigned_pop(const data::CountryInfo& country,
                                         const geo::GeoPoint& client) const;

  /// Terrestrial haul latency (one-way) from a gateway to a PoP.
  [[nodiscard]] Milliseconds gateway_to_pop(std::size_t gateway_index,
                                            std::size_t pop_index) const;

  /// All satellites visible from each gateway at `min_elevation_deg`.
  /// Gateways carry several tracking antennas and can land traffic on any
  /// visible satellite -- crucial for ISL routing, since the hop-nearest
  /// visible satellite may be on a very different orbital plane than the
  /// highest-elevation one.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> gateway_visible_satellites(
      const orbit::EphemerisSnapshot& snapshot, double min_elevation_deg) const;

 private:
  std::vector<data::GroundStationInfo> gateways_;
  std::vector<data::PopInfo> pops_;
  terrestrial::Backbone backbone_;
  std::vector<bool> gateway_failed_;
  std::uint64_t failure_version_ = 0;
};

}  // namespace spacecdn::lsn
