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
  flags_.assign(satellite_count, kServing);
  if (satellite_count <= cdn::ResidencyIndex::kMaxCaches) {
    residency_ = std::make_unique<cdn::ResidencyIndex>(satellite_count);
    for (std::uint32_t i = 0; i < satellite_count; ++i) {
      caches_[i]->track_residency(residency_.get(), i);
    }
  }
}

cdn::Cache& SatelliteFleet::cache(std::uint32_t sat) {
  SPACECDN_EXPECT(sat < caches_.size(), "satellite id out of range");
  return *caches_[sat];
}

const cdn::Cache& SatelliteFleet::cache(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < caches_.size(), "satellite id out of range");
  return *caches_[sat];
}

bool SatelliteFleet::flag(std::uint32_t sat, std::uint8_t bit) const {
  SPACECDN_EXPECT(sat < flags_.size(), "satellite id out of range");
  return (flags_[sat] & bit) != 0;
}

void SatelliteFleet::set_flag(std::uint32_t sat, std::uint8_t bit, bool on) {
  SPACECDN_EXPECT(sat < flags_.size(), "satellite id out of range");
  flags_[sat] = static_cast<std::uint8_t>(on ? flags_[sat] | bit : flags_[sat] & ~bit);
}

bool SatelliteFleet::cache_enabled(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < flags_.size(), "satellite id out of range");
  return flags_[sat] == kServing;
}

void SatelliteFleet::set_online(std::uint32_t sat, bool online) {
  set_flag(sat, kOnline, online);
}

bool SatelliteFleet::online(std::uint32_t sat) const { return flag(sat, kOnline); }

void SatelliteFleet::crash_cache(std::uint32_t sat) {
  set_flag(sat, kCacheUp, false);
  caches_[sat]->clear();
  if (auto* m = obs::metrics()) m->counter("spacecdn_cache_crash_total").inc();
}

void SatelliteFleet::restore_cache(std::uint32_t sat) { set_flag(sat, kCacheUp, true); }

bool SatelliteFleet::cache_up(std::uint32_t sat) const { return flag(sat, kCacheUp); }

void SatelliteFleet::enable_all() {
  for (std::uint8_t& f : flags_) f |= kEnabled;
}

void SatelliteFleet::set_enabled(const std::vector<std::uint32_t>& sats) {
  for (std::uint8_t& f : flags_) f &= static_cast<std::uint8_t>(~kEnabled);
  for (std::uint32_t sat : sats) set_flag(sat, kEnabled, true);
}

std::uint32_t SatelliteFleet::enabled_count() const noexcept {
  return static_cast<std::uint32_t>(std::count_if(
      flags_.begin(), flags_.end(), [](std::uint8_t f) { return (f & kEnabled) != 0; }));
}

bool SatelliteFleet::holds(std::uint32_t sat, cdn::ContentId id) const {
  SPACECDN_EXPECT(sat < flags_.size(), "satellite id out of range");
  return flags_[sat] == kServing && caches_[sat]->contains(id);
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
