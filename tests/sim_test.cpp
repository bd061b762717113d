// Scenario-engine tests: spec parsing, World memoization, and -- the
// refactor's acceptance gate -- Runner-path checksums bit-identical to the
// pre-refactor direct-construction path at --threads=1 and --threads=4.
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "des/random.hpp"
#include "des/stats.hpp"
#include "faults/schedule.hpp"
#include "geo/propagation.hpp"
#include "lsn/starlink.hpp"
#include "measurement/aim.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/router.hpp"
#include "util/error.hpp"

namespace {

using namespace spacecdn;

// ---------------------------------------------------------------------------
// Layer 1: ScenarioSpec, scenario files, ScenarioValues
// ---------------------------------------------------------------------------

TEST(Shell1ClientsTest, MatchesManualCoverageFilter) {
  const auto clients = sim::shell1_clients();
  const auto cities = data::cities();
  std::size_t expected = 0;
  for (const auto& city : cities) {
    if (std::abs(city.lat_deg) <= sim::kShell1CoverageLatDeg) ++expected;
  }
  ASSERT_EQ(clients.size(), expected);
  ASSERT_LT(clients.size(), cities.size());  // the band excludes someone
  for (const auto& client : clients) {
    EXPECT_LE(std::abs(client.city->lat_deg), sim::kShell1CoverageLatDeg);
  }
}

TEST(Shell1ClientsTest, DatasetIndexIsStableUnderFiltering) {
  const auto cities = data::cities();
  std::size_t previous = 0;
  bool first = true;
  for (const auto& client : sim::shell1_clients()) {
    // dataset_index addresses the *unfiltered* table (RNG-stream stability).
    ASSERT_LT(client.dataset_index, cities.size());
    EXPECT_EQ(client.city, &cities[client.dataset_index]);
    if (!first) {
      EXPECT_GT(client.dataset_index, previous);  // dataset order
    }
    previous = client.dataset_index;
    first = false;
  }
}

TEST(Shell1ClientsTest, ClientPointsMirrorClients) {
  const auto clients = sim::shell1_clients();
  const auto points = sim::shell1_client_points();
  ASSERT_EQ(points.size(), clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const geo::GeoPoint expected = data::location(*clients[i].city);
    EXPECT_DOUBLE_EQ(points[i].lat_deg, expected.lat_deg);
    EXPECT_DOUBLE_EQ(points[i].lon_deg, expected.lon_deg);
  }
}

TEST(Shell1ClientsTest, NarrowBandIsStrictSubset) {
  const auto wide = sim::shell1_clients();
  const auto narrow = sim::shell1_clients(30.0);
  EXPECT_LT(narrow.size(), wide.size());
  for (const auto& client : narrow) {
    EXPECT_LE(std::abs(client.city->lat_deg), 30.0);
  }
}

std::string write_temp_scenario(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(ScenarioFileTest, ParsesPairsCommentsAndWhitespace) {
  const std::string path = write_temp_scenario("sim_test_ok.scenario",
                                               "# smoke scenario\n"
                                               "\n"
                                               "  tests-per-city = 1 \n"
                                               "threads=2\n"
                                               "constellation=test-shell  # inline\n");
  const auto values = sim::load_scenario_file(path);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values.at("tests-per-city"), "1");
  EXPECT_EQ(values.at("threads"), "2");
  EXPECT_EQ(values.at("constellation"), "test-shell");
}

TEST(ScenarioFileTest, MalformedLineThrows) {
  const std::string path =
      write_temp_scenario("sim_test_bad.scenario", "tests-per-city\n");
  EXPECT_THROW((void)sim::load_scenario_file(path), ConfigError);
}

TEST(ScenarioFileTest, MissingFileThrows) {
  EXPECT_THROW((void)sim::load_scenario_file(testing::TempDir() + "no_such.scenario"),
               ConfigError);
}

TEST(ScenarioValuesTest, CliOverridesFile) {
  const sim::ScenarioValues values({{"seed", "1"}, {"threads", "2"}},
                                   {{"seed", "9"}});
  EXPECT_EQ(values.get("seed", 0L), 9L);
  EXPECT_EQ(values.get("threads", 0L), 2L);
  EXPECT_EQ(values.get("absent", 42L), 42L);
}

TEST(ScenarioValuesTest, ApplySetsTypedFields) {
  sim::ScenarioSpec spec;
  const sim::ScenarioValues values({{"constellation", "test-shell"},
                                    {"tests-per-city", "3"},
                                    {"anycast-noise-ms", "1.5"},
                                    {"cache-policy", "lfu"},
                                    {"threads", "4"},
                                    {"profile", "true"}},
                                   {});
  values.apply(spec);
  EXPECT_EQ(spec.constellation, "test-shell");
  EXPECT_EQ(spec.tests_per_city, 3u);
  EXPECT_DOUBLE_EQ(spec.anycast_noise_ms, 1.5);
  EXPECT_EQ(spec.cache_policy, cdn::CachePolicy::kLfu);
  EXPECT_EQ(spec.threads, 4u);
  EXPECT_TRUE(spec.profile);
}

TEST(ScenarioValuesTest, SeedReseedsAimUnlessPinned) {
  {
    sim::ScenarioSpec spec;
    sim::ScenarioValues({{"seed", "123"}}, {}).apply(spec);
    EXPECT_EQ(spec.seed, 123u);
    EXPECT_EQ(spec.aim_seed, 123u);  // one flag re-seeds the whole scenario
  }
  {
    sim::ScenarioSpec spec;
    sim::ScenarioValues({{"seed", "123"}, {"aim-seed", "7"}}, {}).apply(spec);
    EXPECT_EQ(spec.seed, 123u);
    EXPECT_EQ(spec.aim_seed, 7u);  // --aim-seed pins the campaign
  }
  {
    sim::ScenarioSpec spec;
    sim::ScenarioValues({}, {}).apply(spec);
    EXPECT_EQ(spec.aim_seed, 20240318u);  // untouched without --seed
  }
}

TEST(ScenarioValuesTest, UnusedReportsTypos) {
  sim::ScenarioSpec spec;
  // `placement` is no scenario key: the policy is chosen in code, so the
  // key must reach the unknown-flag warning instead of being swallowed.
  const sim::ScenarioValues values(
      {{"tets-per-city", "1"}, {"threads", "2"}, {"placement", "jump"}}, {});
  values.apply(spec);
  const auto unused = values.unused();
  ASSERT_EQ(unused.size(), 2u);
  EXPECT_EQ(unused[0], "placement");
  EXPECT_EQ(unused[1], "tets-per-city");
}

TEST(ScenarioValuesTest, ApplySetsResilienceAndChaosFields) {
  sim::ScenarioSpec spec;
  const sim::ScenarioValues values({{"resilient-fetch", "true"},
                                    {"request-deadline-ms", "350"},
                                    {"attempt-timeout-ms", "90"},
                                    {"hedge-delay-ms", "-1"},
                                    {"backoff-jitter", "0.2"},
                                    {"breaker-threshold", "7"},
                                    {"breaker-cooldown-s", "2.5"},
                                    {"shed-to-ground", "yes"},
                                    {"chaos", "solar-storm"},
                                    {"chaos-fraction", "0.4"},
                                    {"chaos-plane", "12"}},
                                   {});
  values.apply(spec);
  EXPECT_TRUE(spec.resilient_fetch);
  EXPECT_DOUBLE_EQ(spec.request_deadline_ms, 350.0);
  EXPECT_DOUBLE_EQ(spec.attempt_timeout_ms, 90.0);
  EXPECT_DOUBLE_EQ(spec.hedge_delay_ms, -1.0);
  EXPECT_DOUBLE_EQ(spec.backoff_jitter, 0.2);
  EXPECT_EQ(spec.breaker_threshold, 7L);
  EXPECT_DOUBLE_EQ(spec.breaker_cooldown_s, 2.5);
  EXPECT_TRUE(spec.shed_to_ground);
  EXPECT_EQ(spec.chaos, "solar-storm");
  EXPECT_DOUBLE_EQ(spec.chaos_fraction, 0.4);
  EXPECT_EQ(spec.chaos_plane, 12L);
}

TEST(ScenarioValuesTest, ApplySetsObservabilityFields) {
  sim::ScenarioSpec spec;
  const sim::ScenarioValues values({{"series-out", "series.jsonl"},
                                    {"timeline-out", "timeline.jsonl"},
                                    {"series-interval-s", "0.25"},
                                    {"slo-objective", "0.995"},
                                    {"slo-window-short-s", "2"},
                                    {"slo-window-long-s", "15"},
                                    {"slo-burn-threshold", "4"}},
                                   {});
  values.apply(spec);
  EXPECT_EQ(spec.series_out, "series.jsonl");
  EXPECT_EQ(spec.timeline_out, "timeline.jsonl");
  EXPECT_DOUBLE_EQ(spec.series_interval_s, 0.25);
  EXPECT_DOUBLE_EQ(spec.slo_objective, 0.995);
  EXPECT_DOUBLE_EQ(spec.slo_window_short_s, 2.0);
  EXPECT_DOUBLE_EQ(spec.slo_window_long_s, 15.0);
  EXPECT_DOUBLE_EQ(spec.slo_burn_threshold, 4.0);

  // Defaults: both sinks off, paper-era SRE alerting parameters.
  const sim::ScenarioSpec defaults;
  EXPECT_TRUE(defaults.series_out.empty());
  EXPECT_TRUE(defaults.timeline_out.empty());
  EXPECT_DOUBLE_EQ(defaults.series_interval_s, 1.0);
  EXPECT_DOUBLE_EQ(defaults.slo_objective, 0.999);
  EXPECT_DOUBLE_EQ(defaults.slo_burn_threshold, 10.0);
}

TEST(ScenarioValuesTest, InvalidEnumValuesFailLoudlyAtApply) {
  // A typo'd enum must throw at parse time, not deep inside a sweep; the
  // unused-key typo warning (above) still covers misspelled *keys*.
  {
    sim::ScenarioSpec spec;
    const sim::ScenarioValues values({{"queue-discipline", "lifo"}}, {});
    EXPECT_THROW(values.apply(spec), ConfigError);
  }
  {
    sim::ScenarioSpec spec;
    const sim::ScenarioValues values({{"object-size-dist", "webb"}}, {});
    EXPECT_THROW(values.apply(spec), ConfigError);
  }
  {
    sim::ScenarioSpec spec;
    const sim::ScenarioValues values({{"chaos", "sharknado"}}, {});
    EXPECT_THROW(values.apply(spec), ConfigError);
  }
  {
    // The valid spellings all pass.
    sim::ScenarioSpec spec;
    const sim::ScenarioValues values({{"queue-discipline", "drr"},
                                      {"object-size-dist", "video"},
                                      {"chaos", "flash-crowd-failover"}},
                                     {});
    EXPECT_NO_THROW(values.apply(spec));
  }
}

TEST(ParseCachePolicyTest, IsCaseInsensitive) {
  EXPECT_EQ(sim::parse_cache_policy("lru"), cdn::CachePolicy::kLru);
  EXPECT_EQ(sim::parse_cache_policy("LRU"), cdn::CachePolicy::kLru);
  EXPECT_EQ(sim::parse_cache_policy("Lfu"), cdn::CachePolicy::kLfu);
  EXPECT_THROW((void)sim::parse_cache_policy("mru"), ConfigError);
}

// ---------------------------------------------------------------------------
// Layer 2: World
// ---------------------------------------------------------------------------

sim::ScenarioSpec test_shell_spec() {
  sim::ScenarioSpec spec;
  spec.constellation = "test-shell";  // 8x8, cheap enough for unit tests
  return spec;
}

TEST(WorldTest, MemoizesSubstrate) {
  sim::World world(test_shell_spec());
  lsn::StarlinkNetwork& network = world.network();
  EXPECT_EQ(&network, &world.network());
  EXPECT_EQ(&world.constellation(), &network.constellation());
  EXPECT_EQ(&world.fleet(), &world.fleet());
  EXPECT_EQ(&world.ground_cdn(), &world.ground_cdn());
  EXPECT_EQ(&world.clients(), &world.clients());
}

TEST(WorldTest, FleetMatchesSpecAndConstellation) {
  sim::World world(test_shell_spec());
  const space::FleetConfig config = world.fleet_config();
  EXPECT_DOUBLE_EQ(config.capacity_per_satellite.value(),
                   world.spec().fleet_capacity_mb);
  EXPECT_EQ(config.policy, world.spec().cache_policy);
  space::SatelliteFleet fresh = world.make_fleet();
  EXPECT_EQ(fresh.size(), world.constellation().size());
  EXPECT_EQ(fresh.config().policy, config.policy);
}

TEST(WorldTest, MakeNetworkIsUnshared) {
  sim::World world(test_shell_spec());
  const auto fresh =
      world.make_network(lsn::starlink_preset(world.spec().constellation));
  EXPECT_NE(fresh.get(), &world.network());
  EXPECT_EQ(fresh->constellation().size(), world.constellation().size());
}

TEST(WorldTest, AimConfigMirrorsSpec) {
  sim::ScenarioSpec spec = test_shell_spec();
  spec.tests_per_city = 5;
  spec.anycast_noise_ms = 2.25;
  spec.aim_seed = 99;
  sim::World world(spec);
  const measurement::AimConfig config = world.aim_config();
  EXPECT_EQ(config.tests_per_city, 5u);
  EXPECT_DOUBLE_EQ(config.anycast_noise_ms, 2.25);
  EXPECT_EQ(config.seed, 99u);
}

TEST(WorldTest, ChurnConfigMirrorsSpec) {
  sim::ScenarioSpec spec = test_shell_spec();
  spec.fault_horizon_hours = 12.0;
  spec.satellite_mtbf_hours = 6.0;
  spec.satellite_mttr_minutes = 20.0;
  spec.cache_mtbf_hours = 3.0;
  spec.cache_mttr_minutes = 15.0;
  const faults::ChurnConfig churn = sim::World(spec).churn_config();
  EXPECT_DOUBLE_EQ(churn.horizon.value(),
                   Milliseconds::from_minutes(12.0 * 60.0).value());
  EXPECT_TRUE(churn.satellite.enabled());
  EXPECT_DOUBLE_EQ(churn.satellite.mtbf.value(),
                   Milliseconds::from_minutes(6.0 * 60.0).value());
  EXPECT_DOUBLE_EQ(churn.satellite.mttr.value(),
                   Milliseconds::from_minutes(20.0).value());
  EXPECT_TRUE(churn.cache_node.enabled());
  EXPECT_FALSE(churn.ground_station.enabled());  // default spec disables it
  EXPECT_FALSE(churn.laser_terminal.enabled());
}

TEST(WorldTest, PlacedContentBeatsGroundAfterSetTime) {
  // End to end over World's parts, off the epoch: an object placed 4 copies
  // per plane is served from orbit at under half the RTT of an unplaced one,
  // which falls through to the ground CDN.
  const sim::World& world = sim::shared_world();
  const auto network =
      world.make_network(lsn::starlink_preset(world.spec().constellation));
  network->set_time(Milliseconds::from_minutes(3.0));
  EXPECT_DOUBLE_EQ(network->time().value(), 180000.0);
  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  space::SpaceCdnRouter router(*network, fleet, ground, {.admit_on_fetch = false});
  const cdn::ContentItem placed{99, Megabytes{25.0}, data::Region::kAfrica};
  const cdn::ContentItem unplaced{123, Megabytes{5.0}, data::Region::kAfrica};
  space::ContentPlacement(network->constellation(), {}).place(fleet, placed,
                                                              network->time());

  const data::CityInfo& city = data::city("Maputo");
  const data::CountryInfo& country = data::country(city.country_code);
  des::Rng rng(15);
  const auto space_fetch =
      router.fetch(data::location(city), country, placed, rng, network->time());
  const auto ground_fetch =
      router.fetch(data::location(city), country, unplaced, rng, network->time());
  ASSERT_TRUE(space_fetch.has_value());
  ASSERT_TRUE(ground_fetch.has_value());
  EXPECT_NE(space_fetch->tier, space::FetchTier::kGround);
  EXPECT_EQ(ground_fetch->tier, space::FetchTier::kGround);
  EXPECT_LT(space_fetch->rtt.value(), ground_fetch->rtt.value() / 2.0);
}

TEST(WorldTest, SharedWorldIsProcessWideDefaultScenario) {
  sim::World& shared = sim::shared_world();
  EXPECT_EQ(&shared, &sim::shared_world());
  EXPECT_EQ(shared.spec().constellation, "shell1");
  EXPECT_EQ(shared.spec().tests_per_city, 40u);
}

// ---------------------------------------------------------------------------
// Layer 3: Runner parity with the pre-refactor direct-call path
// ---------------------------------------------------------------------------

// One Shell-1 network constructed the pre-refactor way: a plain
// lsn::StarlinkNetwork with no sim:: layer in sight.  Shared across the
// parity tests so this binary pays the direct-construction cost once.
lsn::StarlinkNetwork& direct_network() {
  static lsn::StarlinkNetwork network;
  return network;
}

constexpr std::uint64_t kParitySeed = 7;            // fig7's historical literal
constexpr std::uint64_t kParityAimSeed = 20240318;  // fig2's campaign epoch
constexpr double kParityCoverageLatDeg = 56.0;      // pre-refactor literal
const std::array<std::uint32_t, 2> kParityBudgets{1, 3};

/// Scaled-down fig7 sampler (2 draws, 2 hop budgets) shared by the direct
/// and Runner paths; sample order matches fig7's merge order exactly.
std::vector<double> sample_parity(const lsn::StarlinkNetwork& network,
                                  const data::CityInfo& city, des::Rng rng) {
  std::vector<double> samples;
  const auto& snapshot = network.snapshot();
  const geo::GeoPoint location = data::location(city);
  const auto serving = snapshot.serving_satellite(location, 25.0);
  if (!serving) return samples;
  const Milliseconds uplink = geo::propagation_delay(
      snapshot.slant_range(location, *serving), geo::Medium::kVacuum);
  const auto service = [&rng] {
    return Milliseconds{rng.lognormal_median(2.0, 0.3)};
  };
  for (int k = 0; k < 2; ++k) {
    samples.push_back((uplink * 2.0 + service()).value());
  }
  const auto ring = network.isl().within_hops(*serving, kParityBudgets.back());
  const auto isl_latency = network.isl().latencies_from(*serving);
  for (const std::uint32_t budget : kParityBudgets) {
    double best = net::kUnreachable;
    for (const auto& hd : *ring) {
      if (hd.hops == budget) best = std::min(best, isl_latency[hd.node].value());
    }
    if (best == net::kUnreachable) continue;
    for (int k = 0; k < 2; ++k) {
      samples.push_back(((uplink + Milliseconds{best}) * 2.0 + service()).value());
    }
  }
  return samples;
}

const std::array<Milliseconds, 2> parity_epochs() {
  return {Milliseconds{0.0}, Milliseconds::from_minutes(8.0)};
}

/// The pre-refactor fig7 path: direct network, hand-rolled coverage filter,
/// serial city loop, explicit des::mix_seed streams.
std::uint64_t fig7_direct_checksum() {
  lsn::StarlinkNetwork& network = direct_network();
  des::Fnv1aChecksum checksum;
  const auto cities = data::cities();
  std::uint64_t epoch_index = 0;
  for (const Milliseconds epoch : parity_epochs()) {
    network.set_time(epoch);
    for (std::size_t i = 0; i < cities.size(); ++i) {
      if (std::abs(cities[i].lat_deg) > kParityCoverageLatDeg) continue;
      const auto samples = sample_parity(
          network, cities[i],
          des::Rng(des::mix_seed(kParitySeed, epoch_index * cities.size() + i)));
      for (const double v : samples) checksum.add(v);
    }
    ++epoch_index;
  }
  network.set_time(Milliseconds{0.0});
  return checksum.digest();
}

/// The pre-refactor fig2 path: direct network + AimCampaign run serially.
std::uint64_t fig2_direct_checksum() {
  lsn::StarlinkNetwork& network = direct_network();
  network.set_time(Milliseconds{0.0});
  measurement::AimConfig config;
  config.tests_per_city = 1;
  config.seed = kParityAimSeed;
  measurement::AimCampaign campaign(network, config);
  des::Fnv1aChecksum checksum;
  for (const auto& r : campaign.run()) {
    checksum.add(r.idle_rtt.value());
    checksum.add(r.loaded_rtt.value());
  }
  return checksum.digest();
}

struct RunnerParityResult {
  std::uint64_t fig7 = 0;
  std::uint64_t fig2 = 0;
};

/// The refactored path: the same sweeps through Runner/World -- pool-sharded
/// clients, stream_rng, dataset_index streams, world-built AIM campaign.
RunnerParityResult runner_parity_checksums(const char* threads_flag) {
  const std::array<const char*, 2> argv{"sim_test", threads_flag};
  sim::RunnerOptions options;
  options.name = "sim_test_parity";
  options.default_seed = kParitySeed;
  options.defaults.tests_per_city = 1;
  sim::Runner runner(static_cast<int>(argv.size()), argv.data(), options);

  lsn::StarlinkNetwork& network = runner.world().network();
  const auto& clients = runner.world().clients();
  const std::size_t dataset_size = data::cities().size();
  std::uint64_t epoch_index = 0;
  for (const Milliseconds epoch : parity_epochs()) {
    network.set_time(epoch);
    std::vector<std::vector<double>> shards(clients.size());
    runner.pool().parallel_for(clients.size(), [&](std::size_t i) {
      shards[i] = sample_parity(
          network, *clients[i].city,
          runner.stream_rng(epoch_index * dataset_size + clients[i].dataset_index));
    });
    for (const auto& shard : shards) {
      for (const double v : shard) runner.checksum().add(v);
    }
    ++epoch_index;
  }
  RunnerParityResult result;
  result.fig7 = runner.checksum().digest();

  network.set_time(Milliseconds{0.0});
  des::Fnv1aChecksum aim_checksum;
  for (const auto& r : runner.world().aim().run(runner.pool())) {
    aim_checksum.add(r.idle_rtt.value());
    aim_checksum.add(r.loaded_rtt.value());
  }
  result.fig2 = aim_checksum.digest();
  return result;
}

TEST(RunnerParityTest, Fig7AndFig2ChecksumsMatchDirectPathAtOneAndFourThreads) {
  const std::uint64_t fig7_direct = fig7_direct_checksum();
  const std::uint64_t fig2_direct = fig2_direct_checksum();

  const RunnerParityResult serial = runner_parity_checksums("--threads=1");
  EXPECT_EQ(serial.fig7, fig7_direct);
  EXPECT_EQ(serial.fig2, fig2_direct);

  const RunnerParityResult sharded = runner_parity_checksums("--threads=4");
  EXPECT_EQ(sharded.fig7, fig7_direct);
  EXPECT_EQ(sharded.fig2, fig2_direct);
}

TEST(RunnerParityTest, ChurnSchedulesMatchDirectPathAtFourThreads) {
  // Pre-refactor path: hand-built churn config, literal seed, serial sweep.
  faults::ChurnConfig direct;
  direct.horizon = Milliseconds::from_minutes(24.0 * 60.0);
  direct.satellite = {Milliseconds::from_minutes(6.0 * 60.0),
                      Milliseconds::from_minutes(20.0)};
  direct.cache_node = {Milliseconds::from_minutes(12.0 * 60.0),
                       Milliseconds::from_minutes(30.0)};
  const faults::ComponentCounts counts{
      static_cast<std::uint32_t>(direct_network().constellation().size()), 0};
  constexpr std::uint64_t kChurnSeed = 400;  // ablation_churn's literal
  constexpr std::size_t kSweepPoints = 4;
  std::vector<std::vector<faults::FaultEvent>> direct_events(kSweepPoints);
  for (std::size_t i = 0; i < kSweepPoints; ++i) {
    des::Rng rng(des::mix_seed(kChurnSeed, i));
    direct_events[i] = faults::FaultSchedule::generate(direct, counts, rng).events();
  }
  ASSERT_FALSE(direct_events[0].empty());

  // Runner path: the same sweep from CLI churn flags, sharded across the pool.
  const std::array<const char*, 6> argv{
      "sim_test",           "--threads=4",
      "--satellite-mtbf-hours=6", "--satellite-mttr-minutes=20",
      "--cache-mtbf-hours=12",    "--cache-mttr-minutes=30"};
  sim::RunnerOptions options;
  options.name = "sim_test_churn";
  options.default_seed = kChurnSeed;
  sim::Runner runner(static_cast<int>(argv.size()), argv.data(), options);
  const faults::ChurnConfig churn = runner.world().churn_config();
  std::vector<std::vector<faults::FaultEvent>> sharded_events(kSweepPoints);
  runner.pool().parallel_for(kSweepPoints, [&](std::size_t i) {
    des::Rng rng = runner.stream_rng(i);
    sharded_events[i] = faults::FaultSchedule::generate(churn, counts, rng).events();
  });

  for (std::size_t i = 0; i < kSweepPoints; ++i) {
    EXPECT_EQ(sharded_events[i].size(), direct_events[i].size());
    EXPECT_TRUE(sharded_events[i] == direct_events[i]) << "sweep point " << i;
  }
}

}  // namespace
