#include "lsn/bent_pipe.hpp"

#include "geo/propagation.hpp"
#include "util/error.hpp"

namespace spacecdn::lsn {

BentPipeRouter::BentPipeRouter(const GroundSegment& ground, const IslNetwork& isl,
                               double user_min_elevation_deg,
                               double gateway_min_elevation_deg)
    : ground_(&ground),
      isl_(&isl),
      user_min_elevation_deg_(user_min_elevation_deg),
      gateway_min_elevation_deg_(gateway_min_elevation_deg) {}

BentPipeRouter::ValidityKey BentPipeRouter::current_key() const noexcept {
  return {isl_->snapshot().epoch(), isl_->topology_epoch(), ground_->failure_version()};
}

std::optional<BentPipeRouter::Leg> BentPipeRouter::leg(std::uint32_t serving,
                                                       std::size_t pop) const {
  const ValidityKey key = current_key();
  const std::uint64_t slot = std::uint64_t{serving} * ground_->pop_count() + pop;
  std::shared_ptr<const LandingLists> landing;
  {
    const std::lock_guard lock(gateway_mutex_);
    if (landing_ == nullptr || memo_key_ != key) {
      // Landing visibility depends on the snapshot alone; a fail/recover or
      // a gateway flip keeps the lists and drops only the legs.
      if (landing_ == nullptr || memo_key_.snapshot_epoch != key.snapshot_epoch) {
        landing_ = std::make_shared<const LandingLists>(
            ground_->gateway_visible_satellites(isl_->snapshot(),
                                                gateway_min_elevation_deg_));
      }
      legs_.clear();
      memo_key_ = key;
    }
    if (const auto it = legs_.find(slot); it != legs_.end()) return it->second;
    landing = landing_;
  }
  std::optional<Leg> computed = compute_leg(serving, pop, *landing);
  const std::lock_guard lock(gateway_mutex_);
  if (memo_key_ == key) legs_.try_emplace(slot, computed);
  return computed;
}

std::optional<BentPipeRouter::Leg> BentPipeRouter::compute_leg(
    std::uint32_t serving, std::size_t pop, const LandingLists& landing) const {
  // One cached SSSP from the serving satellite, then pick the gateway whose
  // (ISL + downlink + terrestrial haul to the PoP) total is minimal.  This
  // lets traffic land at a distant gateway near the PoP -- the ISL-detour
  // behaviour the paper observes for southern Africa.
  const auto& snapshot = isl_->snapshot();
  const auto sssp = isl_->sssp_from(serving);
  const std::vector<Milliseconds>& isl_latency = sssp->distances();

  std::optional<Leg> best;
  double best_total = net::kUnreachable;
  for (std::size_t g = 0; g < ground_->gateway_count(); ++g) {
    if (ground_->gateway_failed(g)) continue;  // teleport outage: land elsewhere
    const Milliseconds haul = ground_->gateway_to_pop(g, pop);
    const geo::GeoPoint gw_location = data::location(ground_->gateway(g));
    // Any visible satellite can land the traffic; pick the one minimising
    // the full ISL + downlink + haul total.
    for (std::uint32_t landing_sat : landing[g]) {
      const Milliseconds isl_ms = isl_latency[landing_sat];
      if (isl_ms.value() == net::kUnreachable) continue;
      if (isl_ms.value() + haul.value() >= best_total) continue;  // prune
      const Kilometers down_km = snapshot.slant_range(gw_location, landing_sat);
      const Milliseconds down = geo::propagation_delay(down_km, geo::Medium::kVacuum);
      const double total = isl_ms.value() + down.value() + haul.value();
      if (total < best_total) {
        best_total = total;
        best = Leg{landing_sat, 0, g, isl_ms, down, haul};
      }
    }
  }
  // Recover the hop count of the chosen ISL path from the same SSSP tree's
  // parent array rather than a second Dijkstra.
  if (best) best->isl_hops = sssp->hops_to(best->landing_satellite);
  return best;
}

std::optional<RouteBreakdown> BentPipeRouter::route(const geo::GeoPoint& client,
                                                    const data::CountryInfo& country,
                                                    const geo::GeoPoint& destination) const {
  auto breakdown = route_to_pop(client, country);
  if (!breakdown) return std::nullopt;
  breakdown->pop_to_destination = ground_->backbone().one_way_latency(
      data::location(ground_->pop(breakdown->pop)), destination);
  return breakdown;
}

std::optional<RouteBreakdown> BentPipeRouter::route_to_pop(
    const geo::GeoPoint& client, const data::CountryInfo& country) const {
  const auto serving =
      isl_->snapshot().serving_satellite(client, user_min_elevation_deg_);
  if (!serving) return std::nullopt;  // coverage gap
  return route_from_satellite(*serving, client, country);
}

std::optional<RouteBreakdown> BentPipeRouter::route_from_satellite(
    std::uint32_t serving, const geo::GeoPoint& client,
    const data::CountryInfo& country) const {
  const auto& snapshot = isl_->snapshot();
  SPACECDN_EXPECT(serving < snapshot.size(), "serving satellite id out of range");
  const std::size_t pop = ground_->assigned_pop(country, client);
  // Everything past the uplink depends only on (serving, pop) within one
  // memo key, so the many clients sharing a serving satellite and a PoP pay
  // for one gateway scan between them.
  const auto leg_to_pop = leg(serving, pop);
  if (!leg_to_pop) return std::nullopt;

  RouteBreakdown b;
  b.serving_satellite = serving;
  b.landing_satellite = leg_to_pop->landing_satellite;
  b.gateway = leg_to_pop->gateway;
  b.pop = pop;
  b.isl_hops = leg_to_pop->isl_hops;
  b.uplink = geo::propagation_delay(snapshot.slant_range(client, serving),
                                    geo::Medium::kVacuum);
  b.isl = leg_to_pop->isl;
  b.downlink = leg_to_pop->downlink;
  b.gateway_haul = leg_to_pop->gateway_haul;
  return b;
}

}  // namespace spacecdn::lsn
