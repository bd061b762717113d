#include "spacecdn/fleet.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace spacecdn::space {

SatelliteFleet::SatelliteFleet(std::uint32_t satellite_count, const FleetConfig& config)
    : config_(config) {
  SPACECDN_EXPECT(satellite_count > 0, "fleet must have at least one satellite");
  caches_.reserve(satellite_count);
  for (std::uint32_t i = 0; i < satellite_count; ++i) {
    caches_.push_back(cdn::make_cache(config.policy, config.capacity_per_satellite));
    caches_.back()->set_telemetry_tier("satellite");
  }
  enabled_.assign(satellite_count, true);
  online_.assign(satellite_count, true);
  cache_up_.assign(satellite_count, true);
}

cdn::Cache& SatelliteFleet::cache(std::uint32_t sat) {
  SPACECDN_EXPECT(sat < caches_.size(), "satellite id out of range");
  return *caches_[sat];
}

const cdn::Cache& SatelliteFleet::cache(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < caches_.size(), "satellite id out of range");
  return *caches_[sat];
}

bool SatelliteFleet::cache_enabled(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < enabled_.size(), "satellite id out of range");
  return enabled_[sat] && online_[sat] && cache_up_[sat];
}

void SatelliteFleet::set_online(std::uint32_t sat, bool online) {
  SPACECDN_EXPECT(sat < online_.size(), "satellite id out of range");
  online_[sat] = online;
}

bool SatelliteFleet::online(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < online_.size(), "satellite id out of range");
  return online_[sat];
}

void SatelliteFleet::crash_cache(std::uint32_t sat) {
  SPACECDN_EXPECT(sat < cache_up_.size(), "satellite id out of range");
  caches_[sat]->clear();
  cache_up_[sat] = false;
  if (auto* m = obs::metrics()) m->counter("spacecdn_cache_crash_total").inc();
}

void SatelliteFleet::restore_cache(std::uint32_t sat) {
  SPACECDN_EXPECT(sat < cache_up_.size(), "satellite id out of range");
  cache_up_[sat] = true;
}

bool SatelliteFleet::cache_up(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < cache_up_.size(), "satellite id out of range");
  return cache_up_[sat];
}

void SatelliteFleet::enable_all() { enabled_.assign(caches_.size(), true); }

void SatelliteFleet::set_enabled(const std::vector<std::uint32_t>& sats) {
  enabled_.assign(caches_.size(), false);
  for (std::uint32_t sat : sats) {
    SPACECDN_EXPECT(sat < enabled_.size(), "satellite id out of range");
    enabled_[sat] = true;
  }
}

std::uint32_t SatelliteFleet::enabled_count() const noexcept {
  return static_cast<std::uint32_t>(std::count(enabled_.begin(), enabled_.end(), true));
}

bool SatelliteFleet::holds(std::uint32_t sat, cdn::ContentId id) const {
  return cache_enabled(sat) && cache(sat).contains(id);
}

cdn::CacheStats SatelliteFleet::aggregate_stats() const noexcept {
  cdn::CacheStats total;
  for (const auto& c : caches_) {
    total.hits += c->stats().hits;
    total.misses += c->stats().misses;
    total.insertions += c->stats().insertions;
    total.evictions += c->stats().evictions;
    total.rejected_oversized += c->stats().rejected_oversized;
  }
  return total;
}

Megabytes SatelliteFleet::total_capacity() const noexcept {
  return config_.capacity_per_satellite * static_cast<double>(caches_.size());
}

}  // namespace spacecdn::space
