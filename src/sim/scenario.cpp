#include "sim/scenario.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>

#include "lsn/starlink.hpp"
#include "orbit/walker.hpp"
#include "util/error.hpp"

namespace spacecdn::sim {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  SPACECDN_EXPECT(!value.empty() && end != nullptr && *end == '\0',
                  "scenario key '" + key + "' expects a number, got '" + value + "'");
  return parsed;
}

long parse_long(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  SPACECDN_EXPECT(!value.empty() && end != nullptr && *end == '\0' && errno != ERANGE,
                  "scenario key '" + key + "' expects an integer, got '" + value + "'");
  return parsed;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value.empty() || value == "1" || value == "true" || value == "yes" || value == "on")
    return true;
  if (value == "0" || value == "false" || value == "no" || value == "off") return false;
  throw ConfigError("scenario key '" + key + "' expects a boolean, got '" + value + "'");
}

/// Eager enum validation: a typo'd value fails at parse time with the valid
/// set listed, instead of deep inside a sweep after minutes of work.  The
/// valid sets are spelled here (sim cannot depend on load) and pinned by
/// tests against the consumers' parsers.
void expect_one_of(const std::string& key, const std::string& value,
                   std::initializer_list<const char*> valid) {
  for (const char* v : valid) {
    if (value == v) return;
  }
  std::string options;
  for (const char* v : valid) {
    if (!options.empty()) options += "/";
    options += v;
  }
  throw ConfigError("scenario key '" + key + "': unknown value '" + value + "' (" +
                    options + ")");
}

}  // namespace

double derived_coverage_lat_deg(const std::string& constellation) {
  // The shell1 family keeps the published 56.0 calibration byte-identically
  // (deriving it geometrically would give ~61.5 and silently change every
  // client set and figure checksum).  Other presets get the geometric bound
  // at the default user-terminal elevation mask.
  if (constellation == "shell1" || constellation == "test-shell") {
    return kShell1CoverageLatDeg;
  }
  return orbit::coverage_lat_limit_deg(orbit::multi_shell_preset(constellation),
                                       lsn::StarlinkConfig{}.user_min_elevation_deg);
}

geo::GeoPoint client_location(const Shell1Client& client) {
  return client.point ? *client.point : data::location(*client.city);
}

std::vector<Shell1Client> shell1_clients(double coverage_lat_deg) {
  std::vector<Shell1Client> clients;
  const auto cities = data::cities();
  for (std::size_t i = 0; i < cities.size(); ++i) {
    if (std::abs(cities[i].lat_deg) <= coverage_lat_deg) {
      clients.push_back({&cities[i], i});
    }
  }
  return clients;
}

std::vector<geo::GeoPoint> shell1_client_points(double coverage_lat_deg) {
  std::vector<geo::GeoPoint> points;
  for (const auto& client : shell1_clients(coverage_lat_deg)) {
    points.push_back(data::location(*client.city));
  }
  return points;
}

std::map<std::string, std::string> load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  SPACECDN_EXPECT(static_cast<bool>(in), "cannot open scenario file '" + path + "'");
  std::map<std::string, std::string> values;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line.substr(0, line.find('#')));
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    SPACECDN_EXPECT(eq != std::string::npos && eq > 0,
                    path + ":" + std::to_string(lineno) +
                        ": expected key=value, got '" + stripped + "'");
    values[trim(stripped.substr(0, eq))] = trim(stripped.substr(eq + 1));
  }
  return values;
}

cdn::CachePolicy parse_cache_policy(const std::string& name) {
  std::string lower;
  for (const char c : name) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "lru") return cdn::CachePolicy::kLru;
  if (lower == "lfu") return cdn::CachePolicy::kLfu;
  if (lower == "fifo") return cdn::CachePolicy::kFifo;
  throw ConfigError("unknown cache policy '" + name + "' (lru/lfu/fifo)");
}

ScenarioValues::ScenarioValues(std::map<std::string, std::string> file,
                               std::map<std::string, std::string> cli)
    : values_(std::move(file)) {
  for (auto& [key, value] : cli) values_[key] = std::move(value);
}

bool ScenarioValues::has(const std::string& key) const {
  queried_[key] = true;
  return values_.count(key) != 0;
}

std::string ScenarioValues::get(const std::string& key, const std::string& fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long ScenarioValues::get(const std::string& key, long fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_long(key, it->second);
}

double ScenarioValues::get(const std::string& key, double fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double(key, it->second);
}

bool ScenarioValues::get(const std::string& key, bool fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_bool(key, it->second);
}

void ScenarioValues::apply(ScenarioSpec& spec) const {
  spec.constellation = get("constellation", spec.constellation);
  {
    // Eager preset validation, same spirit as expect_one_of below.
    bool known = false;
    std::string options;
    for (const std::string& name : orbit::constellation_preset_names()) {
      known = known || spec.constellation == name;
      if (!options.empty()) options += "/";
      options += name;
    }
    if (!known) {
      throw ConfigError("scenario key 'constellation': unknown value '" +
                        spec.constellation + "' (" + options + ")");
    }
  }
  const bool coverage_given = values_.count("coverage-lat") != 0;
  spec.coverage_lat_deg = get("coverage-lat", spec.coverage_lat_deg);
  // The coverage band follows the constellation unless pinned explicitly
  // (or pre-set programmatically to something other than the default).
  if (!coverage_given && spec.coverage_lat_deg == kShell1CoverageLatDeg) {
    spec.coverage_lat_deg = derived_coverage_lat_deg(spec.constellation);
  }
  spec.tests_per_city =
      static_cast<std::uint32_t>(get("tests-per-city", static_cast<long>(spec.tests_per_city)));
  spec.anycast_noise_ms = get("anycast-noise-ms", spec.anycast_noise_ms);
  spec.fleet_capacity_mb = get("fleet-capacity-mb", spec.fleet_capacity_mb);
  spec.cache_policy = parse_cache_policy(
      get("cache-policy", std::string(cdn::to_string(spec.cache_policy))));
  spec.fault_horizon_hours = get("fault-horizon-hours", spec.fault_horizon_hours);
  spec.satellite_mtbf_hours = get("satellite-mtbf-hours", spec.satellite_mtbf_hours);
  spec.satellite_mttr_minutes = get("satellite-mttr-minutes", spec.satellite_mttr_minutes);
  spec.cache_mtbf_hours = get("cache-mtbf-hours", spec.cache_mtbf_hours);
  spec.cache_mttr_minutes = get("cache-mttr-minutes", spec.cache_mttr_minutes);
  spec.arrival_rate_rps = get("arrival-rate", spec.arrival_rate_rps);
  spec.object_size_dist = get("object-size-dist", spec.object_size_dist);
  expect_one_of("object-size-dist", spec.object_size_dist, {"web", "video", "mixed"});
  spec.link_capacity_scale = get("link-capacity", spec.link_capacity_scale);
  spec.burst_trace = get("burst-trace", spec.burst_trace);
  spec.load_horizon_s = get("load-horizon-s", spec.load_horizon_s);
  spec.queue_discipline = get("queue-discipline", spec.queue_discipline);
  expect_one_of("queue-discipline", spec.queue_discipline, {"fifo", "drr"});
  spec.replica_diversity = get("replica-diversity", spec.replica_diversity);
  expect_one_of("replica-diversity", spec.replica_diversity, {"plane", "phase"});

  spec.resilient_fetch = get("resilient-fetch", spec.resilient_fetch);
  spec.request_deadline_ms = get("request-deadline-ms", spec.request_deadline_ms);
  spec.attempt_timeout_ms = get("attempt-timeout-ms", spec.attempt_timeout_ms);
  spec.hedge_delay_ms = get("hedge-delay-ms", spec.hedge_delay_ms);
  spec.backoff_jitter = get("backoff-jitter", spec.backoff_jitter);
  spec.breaker_threshold = get("breaker-threshold", spec.breaker_threshold);
  spec.breaker_cooldown_s = get("breaker-cooldown-s", spec.breaker_cooldown_s);
  spec.shed_to_ground = get("shed-to-ground", spec.shed_to_ground);

  spec.chaos = get("chaos", spec.chaos);
  if (!spec.chaos.empty()) {
    expect_one_of("chaos", spec.chaos,
                  {"disaster-region", "solar-storm", "flash-crowd-failover"});
  }
  spec.chaos_start_s = get("chaos-start-s", spec.chaos_start_s);
  spec.chaos_duration_s = get("chaos-duration-s", spec.chaos_duration_s);
  spec.chaos_lat = get("chaos-lat", spec.chaos_lat);
  spec.chaos_lon = get("chaos-lon", spec.chaos_lon);
  spec.chaos_radius_km = get("chaos-radius-km", spec.chaos_radius_km);
  spec.chaos_surge = get("chaos-surge", spec.chaos_surge);
  spec.chaos_fraction = get("chaos-fraction", spec.chaos_fraction);
  spec.chaos_plane = get("chaos-plane", spec.chaos_plane);

  spec.seed = static_cast<std::uint64_t>(get("seed", static_cast<long>(spec.seed)));
  // One flag re-seeds the whole scenario: an explicit --seed also re-seeds
  // the AIM campaign unless --aim-seed pins it separately.  At defaults the
  // historical split (bench literal vs 20240318) is preserved.
  const bool seed_given = values_.count("seed") != 0;
  const std::uint64_t aim_fallback = seed_given ? spec.seed : spec.aim_seed;
  spec.aim_seed =
      static_cast<std::uint64_t>(get("aim-seed", static_cast<long>(aim_fallback)));

  spec.threads = static_cast<std::size_t>(get("threads", static_cast<long>(spec.threads)));
  spec.csv_out = get("csv-out", spec.csv_out);
  spec.json_out = get("json-out", spec.json_out);
  spec.metrics_out = get("metrics-out", spec.metrics_out);
  spec.trace_out = get("trace-out", spec.trace_out);
  spec.profile = get("profile", spec.profile);

  spec.series_out = get("series-out", spec.series_out);
  spec.timeline_out = get("timeline-out", spec.timeline_out);
  spec.series_interval_s = get("series-interval-s", spec.series_interval_s);
  spec.slo_objective = get("slo-objective", spec.slo_objective);
  spec.slo_window_short_s = get("slo-window-short-s", spec.slo_window_short_s);
  spec.slo_window_long_s = get("slo-window-long-s", spec.slo_window_long_s);
  spec.slo_burn_threshold = get("slo-burn-threshold", spec.slo_burn_threshold);
}

std::vector<std::string> ScenarioValues::unused() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : values_) {
    if (!queried_.count(key)) keys.push_back(key);
  }
  return keys;
}

}  // namespace spacecdn::sim
