// The satellite cache fleet: one cache per satellite, with a duty-cycle
// enable mask.
//
// Paper section 5 sizes this: a COTS edge server carries ~150 TB of storage,
// so 6,000 satellites could host >900 PB -- more than 300 million 2-hour
// 1080p videos.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/cache.hpp"
#include "cdn/residency_index.hpp"

namespace spacecdn::space {

/// Fleet-wide cache configuration.
struct FleetConfig {
  /// Per-satellite storage (attached to the in-orbit server; paper cites the
  /// HPE DL325's ~150 TB).
  Megabytes capacity_per_satellite{150'000'000.0 / 1000.0};  // 150 TB in MB
  cdn::CachePolicy policy = cdn::CachePolicy::kLru;
};

/// Per-satellite caches plus the duty-cycle mask (which satellites currently
/// *serve* as caches; the rest only relay), and a residency index over the
/// caches (see residency()).
class SatelliteFleet {
 public:
  SatelliteFleet(std::uint32_t satellite_count, const FleetConfig& config);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(caches_.size());
  }
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

  [[nodiscard]] cdn::Cache& cache(std::uint32_t sat);
  [[nodiscard]] const cdn::Cache& cache(std::uint32_t sat) const;

  /// Whether `sat` currently offers cache service: duty-cycle enabled AND
  /// the satellite is online AND its cache process is up.
  [[nodiscard]] bool cache_enabled(std::uint32_t sat) const;

  /// Enables every satellite as a cache (the default).
  void enable_all();

  /// Enables exactly the given satellites; everything else becomes a relay.
  void set_enabled(const std::vector<std::uint32_t>& sats);

  [[nodiscard]] std::uint32_t enabled_count() const noexcept;

  // --- failure injection (spacecdn/resilience drives these) ---

  /// Whole-satellite power state.  An offline satellite neither serves
  /// clients nor offers its cache; its contents survive (the bus rebooted,
  /// the disks did not die).
  void set_online(std::uint32_t sat, bool online);
  [[nodiscard]] bool online(std::uint32_t sat) const;

  /// Crashes the cache process on `sat`: all cached contents are lost and
  /// the cache stays down until restore_cache().
  void crash_cache(std::uint32_t sat);

  /// Brings a crashed cache back online -- empty, awaiting re-replication.
  void restore_cache(std::uint32_t sat);
  [[nodiscard]] bool cache_up(std::uint32_t sat) const;

  /// True when `sat` is cache-enabled and holds `id` (no stats update).
  [[nodiscard]] bool holds(std::uint32_t sat, cdn::ContentId id) const;

  /// Which satellites' caches store each object, whether or not they are
  /// cache-enabled (holder h is satellite h).  Every cache reports to it, so
  /// it stays exact under any mix of inserts, evictions, erases and
  /// crashes.  nullptr for a fleet of more than ResidencyIndex::kMaxCaches
  /// satellites.
  [[nodiscard]] const cdn::ResidencyIndex* residency() const noexcept {
    return residency_.get();
  }

  /// Aggregated stats over all satellite caches.
  [[nodiscard]] cdn::CacheStats aggregate_stats() const noexcept;

  /// Total fleet storage.
  [[nodiscard]] Megabytes total_capacity() const noexcept;

 private:
  // Bits of flags_; a satellite serves as a cache when all three are set.
  static constexpr std::uint8_t kEnabled = 1;  // duty cycle
  static constexpr std::uint8_t kOnline = 2;   // satellite powered (fault injection)
  static constexpr std::uint8_t kCacheUp = 4;  // cache process alive (a crash empties it)
  static constexpr std::uint8_t kServing = kEnabled | kOnline | kCacheUp;

  [[nodiscard]] bool flag(std::uint32_t sat, std::uint8_t bit) const;
  void set_flag(std::uint32_t sat, std::uint8_t bit, bool on);

  FleetConfig config_;
  std::vector<std::unique_ptr<cdn::Cache>> caches_;
  std::vector<std::uint8_t> flags_;
  // Heap-held so the caches' pointers to it survive a move of the fleet.
  std::unique_ptr<cdn::ResidencyIndex> residency_;
};

}  // namespace spacecdn::space
