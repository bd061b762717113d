#include "lsn/starlink.hpp"

#include "util/error.hpp"

namespace spacecdn::lsn {

StarlinkConfig starlink_preset(std::string_view name) {
  StarlinkConfig config;
  config.shell = orbit::multi_shell_preset(name);
  return config;
}

StarlinkNetwork::StarlinkNetwork(StarlinkConfig config)
    : config_(config),
      constellation_(config.shell),
      ground_(config.gateway_backbone),
      access_(config.access),
      failed_now_(config.failed_satellites) {
  set_time(Milliseconds{0.0});
}

void StarlinkNetwork::set_time(Milliseconds t) {
  if (snapshot_ == nullptr) {
    snapshot_ = std::make_unique<orbit::EphemerisSnapshot>(constellation_, t);
    isl_ = std::make_unique<IslNetwork>(constellation_, *snapshot_, config_.isl,
                                        failed_now_);
    router_ = std::make_unique<BentPipeRouter>(
        ground_, *isl_, config_.user_min_elevation_deg,
        config_.gateway_min_elevation_deg);
    return;
  }
  // Re-propagation keeps every allocation alive: the snapshot advances in
  // place (position buffers and visibility index reused, epoch bumped), the
  // ISL fabric rebuilds edge weights in place (failure state carries over)
  // and invalidates cached SSSP trees and hop rings, and the router refreshes
  // its landing lists and memoised legs lazily when it sees the new epochs.
  snapshot_->advance(t);
  isl_->advance(*snapshot_);
}

void StarlinkNetwork::fail_satellite(std::uint32_t sat) {
  if (isl_->is_failed(sat)) return;
  isl_->fail(sat);
  failed_now_.push_back(sat);
}

void StarlinkNetwork::recover_satellite(std::uint32_t sat) {
  if (!isl_->is_failed(sat)) return;
  isl_->recover(sat);
  std::erase(failed_now_, sat);
}

void StarlinkNetwork::set_gateway_failed(std::size_t gateway_index, bool failed) {
  ground_.set_gateway_failed(gateway_index, failed);
}

std::optional<RouteBreakdown> StarlinkNetwork::route(
    const geo::GeoPoint& client, const data::CountryInfo& country,
    const geo::GeoPoint& destination) const {
  return router_->route(client, country, destination);
}

Milliseconds StarlinkNetwork::baseline_rtt(const RouteBreakdown& route) const noexcept {
  return route.propagation_rtt() + access_.config().median_overhead_rtt;
}

Milliseconds StarlinkNetwork::sample_idle_rtt(const RouteBreakdown& route,
                                              des::Rng& rng) const {
  return route.propagation_rtt() + access_.sample_idle_overhead(rng);
}

Milliseconds StarlinkNetwork::sample_loaded_rtt(const RouteBreakdown& route, double load,
                                                des::Rng& rng) const {
  return route.propagation_rtt() + access_.sample_loaded_overhead(load, rng);
}

}  // namespace spacecdn::lsn
