#include "lsn/ground_segment.hpp"

#include <algorithm>

#include "geo/distance.hpp"
#include "util/error.hpp"

namespace spacecdn::lsn {

GroundSegment::GroundSegment(terrestrial::BackboneConfig backbone)
    : GroundSegment(
          {data::ground_stations().begin(), data::ground_stations().end()},
          {data::starlink_pops().begin(), data::starlink_pops().end()}, backbone) {}

GroundSegment::GroundSegment(std::vector<data::GroundStationInfo> gateways,
                             std::vector<data::PopInfo> pops,
                             terrestrial::BackboneConfig backbone)
    : gateways_(std::move(gateways)),
      pops_(std::move(pops)),
      backbone_(backbone),
      gateway_failed_(gateways_.size(), false) {
  SPACECDN_EXPECT(!gateways_.empty(), "ground segment needs at least one gateway");
  SPACECDN_EXPECT(!pops_.empty(), "ground segment needs at least one PoP");
}

void GroundSegment::set_gateway_failed(std::size_t gateway_index, bool failed) {
  SPACECDN_EXPECT(gateway_index < gateway_failed_.size(), "gateway index out of range");
  if (gateway_failed_[gateway_index] == failed) return;
  gateway_failed_[gateway_index] = failed;
  ++failure_version_;
}

bool GroundSegment::gateway_failed(std::size_t gateway_index) const {
  SPACECDN_EXPECT(gateway_index < gateway_failed_.size(), "gateway index out of range");
  return gateway_failed_[gateway_index];
}

std::size_t GroundSegment::failed_gateway_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(gateway_failed_.begin(), gateway_failed_.end(), true));
}

const data::GroundStationInfo& GroundSegment::gateway(std::size_t i) const {
  SPACECDN_EXPECT(i < gateways_.size(), "gateway index out of range");
  return gateways_[i];
}

const data::PopInfo& GroundSegment::pop(std::size_t i) const {
  SPACECDN_EXPECT(i < pops_.size(), "PoP index out of range");
  return pops_[i];
}

std::size_t GroundSegment::pop_index(std::string_view key) const {
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    if (pops_[i].key == key) return i;
  }
  throw NotFoundError("unknown PoP key: " + std::string(key));
}

std::size_t GroundSegment::nearest_pop(const geo::GeoPoint& point) const {
  std::size_t best = 0;
  Kilometers best_d = geo::great_circle_distance(point, data::location(pops_[0]));
  for (std::size_t i = 1; i < pops_.size(); ++i) {
    const Kilometers d = geo::great_circle_distance(point, data::location(pops_[i]));
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::size_t GroundSegment::assigned_pop(const data::CountryInfo& country,
                                        const geo::GeoPoint& client) const {
  if (country.assigned_pop.empty()) return nearest_pop(client);
  return pop_index(country.assigned_pop);
}

Milliseconds GroundSegment::gateway_to_pop(std::size_t gateway_index,
                                           std::size_t pop_index) const {
  return backbone_.one_way_latency(data::location(gateway(gateway_index)),
                                   data::location(pop(pop_index)));
}

std::vector<std::vector<std::uint32_t>> GroundSegment::gateway_visible_satellites(
    const orbit::EphemerisSnapshot& snapshot, double min_elevation_deg) const {
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(gateways_.size());
  for (const auto& gw : gateways_) {
    out.push_back(snapshot.visible_satellites(data::location(gw), min_elevation_deg));
  }
  return out;
}

}  // namespace spacecdn::lsn
