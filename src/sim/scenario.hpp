// Scenario engine, layer 1: experiment definition as plain data.
//
// The paper's evaluation is a family of closely related experiments over one
// world (Starlink Shell 1 + anycast CDN + AIM clients).  A ScenarioSpec
// captures that world as a config struct -- constellation preset, client-set
// policy, AIM campaign parameters, fleet sizing, fault schedule, seed,
// threads, telemetry sinks, and output paths -- parseable from CLI flags and
// from a simple `key=value` scenario file.  sim::World (world.hpp) turns a
// spec into the shared substrate; sim::Runner (runner.hpp) gives every bench
// binary the same uniform flag surface and deterministic execution.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cdn/cache.hpp"
#include "data/datasets.hpp"
#include "faults/schedule.hpp"
#include "geo/coordinates.hpp"

namespace spacecdn::sim {

/// Shell 1 flies at 53 deg inclination; ground coverage extends a few
/// degrees beyond that, so clients with |lat| above this band see no
/// serving satellite.  This is the published calibration the paper's client
/// sets (and their checksums) were produced with, so the "shell1" and
/// "test-shell" presets pin it byte-identically; other presets derive their
/// band from the shells' geometry (derived_coverage_lat_deg).
inline constexpr double kShell1CoverageLatDeg = 56.0;

/// The |latitude| cutoff for a constellation preset's client set: the
/// published 56.0 for the shell1 family, and
/// orbit::coverage_lat_limit_deg(preset, user elevation mask) for every
/// other preset (a polar shell reaches the poles, so starlink-4shell covers
/// all cities).  @throws spacecdn::ConfigError on an unknown preset.
[[nodiscard]] double derived_coverage_lat_deg(const std::string& constellation);

/// One client terminal inside the coverage band, anchored to a city.
/// `dataset_index` is the city's position in the full data::cities() table,
/// so per-client RNG streams derived from it are stable whether a sweep
/// iterates the filtered or the unfiltered list (the fig7 checksum depends
/// on this).  Synthetic mega-user fleets (sim::synthesize_users) reuse the
/// struct with a unique dataset_index per user and `point` set.
struct Shell1Client {
  const data::CityInfo* city = nullptr;
  std::size_t dataset_index = 0;
  /// When set, the terminal sits here instead of at the city centroid; the
  /// city stays the population/traffic anchor.
  std::optional<geo::GeoPoint> point{};
};

/// The terminal's ground position: the scatter point if set, else the city.
[[nodiscard]] geo::GeoPoint client_location(const Shell1Client& client);

/// Cities within |lat| <= coverage_lat_deg, in dataset order.
[[nodiscard]] std::vector<Shell1Client> shell1_clients(
    double coverage_lat_deg = kShell1CoverageLatDeg);

/// Same filter, reduced to client coordinates (fig8 / duty-cycle style).
[[nodiscard]] std::vector<geo::GeoPoint> shell1_client_points(
    double coverage_lat_deg = kShell1CoverageLatDeg);

/// The world + execution configuration of one experiment run.  Every field
/// has the value the published numbers were produced with, so a
/// default-constructed spec reproduces the paper configuration.
struct ScenarioSpec {
  // --- world ---
  /// Constellation preset name (orbit::constellation_preset_names: "shell1",
  /// "test-shell", "starlink-4shell", "gen2-10k").
  std::string constellation = "shell1";
  /// Client-set policy: keep cities within this |latitude| band.
  double coverage_lat_deg = kShell1CoverageLatDeg;
  /// AIM measurement campaign.
  std::uint32_t tests_per_city = 40;
  double anycast_noise_ms = 6.0;
  std::uint64_t aim_seed = 20240318;
  /// Satellite cache fleet.
  double fleet_capacity_mb = 150'000'000.0 / 1000.0;  // 150 TB per satellite
  cdn::CachePolicy cache_policy = cdn::CachePolicy::kLru;
  /// Fault schedule (mtbf <= 0 disables a class; see World::churn_config).
  double fault_horizon_hours = 24.0;
  double satellite_mtbf_hours = 0.0;
  double satellite_mttr_minutes = 0.0;
  double cache_mtbf_hours = 0.0;
  double cache_mttr_minutes = 0.0;
  /// Request-level load engine (src/load).
  double arrival_rate_rps = 2000.0;  ///< aggregate open-loop offered rate
  std::string object_size_dist = "web";  ///< "web", "video", or "mixed"
  double link_capacity_scale = 1.0;  ///< scales every contended capacity
  std::string burst_trace;  ///< "sec:mult,..." rate schedule (empty: constant)
  double load_horizon_s = 30.0;  ///< arrival horizon of one load run
  std::string queue_discipline = "fifo";  ///< bottleneck queues: fifo or drr

  // --- replica placement (spacecdn/placement_map) ---
  /// Replica spreading constraint of the jump policies: "plane"
  /// (pairwise-distinct orbital planes) or "phase" (distinct planes and
  /// distinct in-plane slots).
  std::string replica_diversity = "plane";

  // --- compound-failure resilience (src/load + src/spacecdn; all off by
  // default, so historical checksums are unchanged) ---
  bool resilient_fetch = false;    ///< route through fetch_resilient
  double request_deadline_ms = 0.0;  ///< SLO + fetch budget (0: unbounded)
  double attempt_timeout_ms = 0.0;   ///< per-attempt cutoff (0: router default)
  double hedge_delay_ms = 0.0;       ///< >0: fixed hedge; <0: auto-p99; 0: off
  double backoff_jitter = 0.0;       ///< +-fraction on the retry backoff
  long breaker_threshold = 0;        ///< gateway circuit breaker (0: disabled)
  double breaker_cooldown_s = 5.0;   ///< open -> half-open probe delay
  bool shed_to_ground = false;       ///< degradation: salvage rejects via tier iii

  // --- chaos scenario (bench/ablation_chaos) ---
  /// "" (off), "disaster-region", "solar-storm", or "flash-crowd-failover".
  std::string chaos;
  double chaos_start_s = 5.0;      ///< fault/surge onset in the run
  double chaos_duration_s = 10.0;  ///< outage + surge window length
  /// Disaster epicentre (default: Frankfurt, the densest gateway cluster --
  /// ~9 European gateways within the default blast radius).
  double chaos_lat = 50.2;
  double chaos_lon = 8.6;
  double chaos_radius_km = 2000.0;  ///< gateway blast radius / surge region
  double chaos_surge = 4.0;         ///< surge multiplier for in-region cities
  double chaos_fraction = 0.25;     ///< solar storm: fraction of fleet hit
  long chaos_plane = 10;            ///< flash-crowd failover: plane that dies

  // --- execution ---
  /// Primary experiment seed; each bench declares its historical literal as
  /// the default, so published numbers are unchanged but sweeps re-seed.
  std::uint64_t seed = 0;
  /// Worker threads for sharded sweeps; 0 means hardware concurrency.
  std::size_t threads = 0;

  // --- outputs / telemetry sinks ---
  std::string csv_out;      ///< CSV series (empty: stdout)
  std::string json_out;     ///< machine-readable results (BENCH_*.json)
  std::string metrics_out;  ///< metrics registry dump (Prometheus or .json)
  std::string trace_out;    ///< per-fetch trace spans (JSONL)
  bool profile = false;     ///< SPACECDN_PROFILE wall-clock table on stderr

  // --- sim-time observability (src/obs recorder + SLO + timeline; per-run
  // state, so unlike the sinks above these do NOT force --threads=1) ---
  std::string series_out;    ///< windowed time series (.jsonl, else CSV)
  std::string timeline_out;  ///< unified incident timeline (JSONL)
  double series_interval_s = 1.0;    ///< sampling window width
  double slo_objective = 0.999;      ///< SLO good-fraction target
  double slo_window_short_s = 5.0;   ///< fast burn-rate window
  double slo_window_long_s = 60.0;   ///< slow burn-rate window
  double slo_burn_threshold = 10.0;  ///< burn multiple that pages
};

/// Parses a `key=value` scenario file: one pair per line, `#` comments and
/// blank lines ignored, whitespace around key and value trimmed.  Keys use
/// the same spelling as the CLI flags (`tests-per-city=1`).
/// @throws spacecdn::ConfigError on an unreadable file or a malformed line.
[[nodiscard]] std::map<std::string, std::string> load_scenario_file(
    const std::string& path);

/// Flat key=value view used by Runner to merge a scenario file with CLI
/// flags (CLI wins) and apply both onto a ScenarioSpec.
class ScenarioValues {
 public:
  /// `file` entries are overridden by `cli` entries.
  ScenarioValues(std::map<std::string, std::string> file,
                 std::map<std::string, std::string> cli);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] long get(const std::string& key, long fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;

  /// Applies every recognised key onto `spec`.  `--seed` (without an
  /// explicit `--aim-seed`) re-seeds the AIM campaign too: one flag re-seeds
  /// the whole scenario.
  void apply(ScenarioSpec& spec) const;

  /// Keys never queried through any getter (typo detection; apply() marks
  /// the keys it consumes).
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

[[nodiscard]] cdn::CachePolicy parse_cache_policy(const std::string& name);

}  // namespace spacecdn::sim
