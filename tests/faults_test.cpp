// Tests for the dynamic fault-injection engine (faults/) and the
// self-healing layer on top of it (spacecdn/resilience, fetch_resilient,
// circuit breakers, correlated fault domains).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "data/datasets.hpp"
#include "faults/domains.hpp"
#include "faults/schedule.hpp"
#include "geo/distance.hpp"
#include "lsn/starlink.hpp"
#include "sim/world.hpp"
#include "spacecdn/circuit_breaker.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/resilience.hpp"
#include "spacecdn/router.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

using faults::ChurnConfig;
using faults::Component;
using faults::FaultEvent;
using faults::FaultSchedule;
using faults::Transition;

ChurnConfig small_churn() {
  ChurnConfig config;
  config.horizon = Milliseconds::from_minutes(24.0 * 60.0);
  config.satellite = {Milliseconds::from_minutes(6.0 * 60.0),
                      Milliseconds::from_minutes(30.0)};
  config.cache_node = {Milliseconds::from_minutes(12.0 * 60.0),
                       Milliseconds::from_minutes(20.0)};
  return config;
}

TEST(FaultSchedule, SameSeedSameTimeline) {
  des::Rng a(77), b(77), c(78);
  const auto one = FaultSchedule::generate(small_churn(), {100, 8}, a);
  const auto two = FaultSchedule::generate(small_churn(), {100, 8}, b);
  const auto other = FaultSchedule::generate(small_churn(), {100, 8}, c);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.events(), two.events());
  EXPECT_NE(one.events(), other.events());
}

TEST(FaultSchedule, EventsSortedAndWithinHorizon) {
  des::Rng rng(5);
  const auto config = small_churn();
  const auto schedule = FaultSchedule::generate(config, {64, 4}, rng);
  Milliseconds prev{0.0};
  for (const FaultEvent& event : schedule.events()) {
    EXPECT_GE(event.at.value(), prev.value());
    EXPECT_LE(event.at.value(), config.horizon.value());
    prev = event.at;
  }
}

TEST(FaultSchedule, PerInstanceAlternatingRenewal) {
  // Every instance's own timeline must strictly alternate fail, recover,
  // fail, ... starting from the up state, with strictly increasing times.
  des::Rng rng(6);
  const auto schedule = FaultSchedule::generate(small_churn(), {32, 0}, rng);
  std::map<std::pair<Component, std::uint32_t>, std::pair<Transition, double>> last;
  for (const FaultEvent& event : schedule.events()) {
    const auto key = std::make_pair(event.component, event.target);
    const auto it = last.find(key);
    if (it == last.end()) {
      EXPECT_EQ(event.transition, Transition::kFail) << "instance starts up";
    } else {
      EXPECT_NE(event.transition, it->second.first) << "must alternate";
      EXPECT_GT(event.at.value(), it->second.second);
    }
    last[key] = {event.transition, event.at.value()};
  }
  // Failure counts bracket recovery counts: each recover has its fail.
  EXPECT_GE(schedule.count(Component::kSatellite, Transition::kFail),
            schedule.count(Component::kSatellite, Transition::kRecover));
}

TEST(FaultSchedule, DisabledClassesProduceNoEvents) {
  ChurnConfig config;
  config.horizon = Milliseconds::from_minutes(60.0);
  config.satellite = {Milliseconds::from_minutes(60.0), Milliseconds::from_minutes(5.0)};
  des::Rng rng(9);
  const auto schedule = FaultSchedule::generate(config, {16, 16}, rng);
  EXPECT_EQ(schedule.count(Component::kGroundStation, Transition::kFail), 0u);
  EXPECT_EQ(schedule.count(Component::kIslTerminal, Transition::kFail), 0u);
  EXPECT_EQ(schedule.count(Component::kCacheNode, Transition::kFail), 0u);
}

TEST(FaultSchedule, RejectsBadConfig) {
  des::Rng rng(1);
  ChurnConfig no_horizon;  // horizon 0
  EXPECT_THROW((void)FaultSchedule::generate(no_horizon, {4, 0}, rng), ConfigError);
  ChurnConfig no_mttr;
  no_mttr.horizon = Milliseconds::from_minutes(60.0);
  no_mttr.satellite = {Milliseconds::from_minutes(10.0), Milliseconds{0.0}};
  EXPECT_THROW((void)FaultSchedule::generate(no_mttr, {4, 0}, rng), ConfigError);
}

TEST(FaultSchedule, TraceModeReplaysSortedStable) {
  const FaultEvent late{Milliseconds{20.0}, Component::kSatellite, Transition::kRecover, 3};
  const FaultEvent early{Milliseconds{5.0}, Component::kSatellite, Transition::kFail, 3};
  const FaultEvent tie_a{Milliseconds{20.0}, Component::kCacheNode, Transition::kFail, 1};
  const auto schedule = FaultSchedule::from_trace({late, early, tie_a});
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule.events()[0], early);
  EXPECT_EQ(schedule.events()[1], late);  // ties keep insertion order
  EXPECT_EQ(schedule.events()[2], tie_a);

  des::Simulator sim;
  std::vector<FaultEvent> fired;
  schedule.install(sim, [&](const FaultEvent& event) { fired.push_back(event); });
  sim.run();
  EXPECT_EQ(fired, schedule.events());
}

class ChurnControllerTest : public ::testing::Test {
 protected:
  ChurnControllerTest()
      : network_([] {
          lsn::StarlinkConfig cfg;
          cfg.shell = orbit::test_shell();
          return cfg;
        }()),
        fleet_(network_.constellation().size(),
               space::FleetConfig{Megabytes{1000.0}, cdn::CachePolicy::kLru}),
        controller_(network_, fleet_) {}

  static FaultEvent event(Component component, Transition transition,
                          std::uint32_t target) {
    return {Milliseconds{0.0}, component, transition, target};
  }

  lsn::StarlinkNetwork network_;
  space::SatelliteFleet fleet_;
  space::ChurnController controller_;
};

TEST_F(ChurnControllerTest, SatelliteOutageDropsIslsAndService) {
  controller_.apply(event(Component::kSatellite, Transition::kFail, 12));
  EXPECT_TRUE(network_.isl().is_failed(12));
  EXPECT_FALSE(fleet_.online(12));
  EXPECT_EQ(controller_.satellites_down(), 1u);

  controller_.apply(event(Component::kSatellite, Transition::kRecover, 12));
  EXPECT_FALSE(network_.isl().is_failed(12));
  EXPECT_TRUE(fleet_.online(12));
  EXPECT_EQ(controller_.satellites_down(), 0u);
  EXPECT_EQ(controller_.counters().satellite_failures, 1u);
  EXPECT_EQ(controller_.counters().satellite_recoveries, 1u);
}

TEST_F(ChurnControllerTest, DuplicateEventsAreIdempotent) {
  controller_.apply(event(Component::kSatellite, Transition::kFail, 3));
  controller_.apply(event(Component::kSatellite, Transition::kFail, 3));
  EXPECT_EQ(controller_.counters().satellite_failures, 1u);
  EXPECT_EQ(controller_.satellites_down(), 1u);
}

TEST_F(ChurnControllerTest, FlapAndOutageCompose) {
  // A laser flap during a whole-satellite outage: the ISLs stay down until
  // BOTH processes have recovered, and the bus comes back serving as soon as
  // the outage (alone) ends.
  controller_.apply(event(Component::kSatellite, Transition::kFail, 20));
  controller_.apply(event(Component::kIslTerminal, Transition::kFail, 20));
  controller_.apply(event(Component::kSatellite, Transition::kRecover, 20));
  EXPECT_TRUE(fleet_.online(20));              // bus is back...
  EXPECT_TRUE(network_.isl().is_failed(20));   // ...but terminals still flapped
  controller_.apply(event(Component::kIslTerminal, Transition::kRecover, 20));
  EXPECT_FALSE(network_.isl().is_failed(20));
}

TEST_F(ChurnControllerTest, GatewayOutageIsTracked) {
  controller_.apply(event(Component::kGroundStation, Transition::kFail, 0));
  EXPECT_TRUE(network_.ground().gateway_failed(0));
  EXPECT_EQ(network_.ground().failed_gateway_count(), 1u);
  controller_.apply(event(Component::kGroundStation, Transition::kRecover, 0));
  EXPECT_EQ(network_.ground().failed_gateway_count(), 0u);
}

TEST_F(ChurnControllerTest, CacheCrashDropsContents) {
  const cdn::ContentItem obj{2, Megabytes{1.0}, data::Region::kEurope};
  ASSERT_TRUE(fleet_.cache(8).insert(obj, Milliseconds{0.0}));
  controller_.apply(event(Component::kCacheNode, Transition::kFail, 8));
  EXPECT_FALSE(fleet_.cache_up(8));
  EXPECT_FALSE(fleet_.cache(8).contains(obj.id));
  // The satellite itself still flies and relays: no ISL surgery happened.
  EXPECT_FALSE(network_.isl().is_failed(8));
  controller_.apply(event(Component::kCacheNode, Transition::kRecover, 8));
  EXPECT_TRUE(fleet_.cache_up(8));
  EXPECT_EQ(controller_.counters().cache_crashes, 1u);
  EXPECT_EQ(controller_.counters().cache_restores, 1u);
}

TEST_F(ChurnControllerTest, PerPlaneRepairMovesAndEvictsNothing) {
  // The per-plane policy ignores membership: a satellite failure and its
  // recovery bump the map's version, yet every holder set stays put, so the
  // delta audit finds nothing to move or evict -- the dark holder is simply
  // deferred until it returns.
  space::PlacementMap map(network_.constellation(),
                          {.policy = space::PlacementPolicy::kPerPlane, .replicas = 2});
  std::vector<cdn::ContentItem> catalog;
  for (cdn::ContentId id = 0; id < 20; ++id) {
    catalog.push_back({id, Megabytes{2.0}, data::Region::kEurope});
    map.place(fleet_, catalog.back(), Milliseconds{0.0});
  }
  controller_.set_membership(&map.membership());
  space::RepairDaemon daemon(fleet_, map, catalog, {});
  const auto holders = map.replicas(0);
  const std::uint32_t victim = holders.front();

  controller_.apply(event(Component::kSatellite, Transition::kFail, victim));
  EXPECT_FALSE(map.membership().live(victim));
  EXPECT_EQ(map.replicas(0), holders);
  const auto down = daemon.run_once(Milliseconds{10.0});
  EXPECT_GT(down.unrepairable, 0u);

  controller_.apply(event(Component::kSatellite, Transition::kRecover, victim));
  EXPECT_TRUE(map.membership().live(victim));
  const auto up = daemon.run_once(Milliseconds{20.0});
  EXPECT_EQ(up.under_replicated, 0u);
  for (const space::RepairReport& report : {down, up}) {
    EXPECT_EQ(report.moved, 0u);
    EXPECT_EQ(report.evicted_stale, 0u);
  }
}

TEST(RepairDaemon, RestoresReplicasFromSurvivingHolders) {
  const orbit::WalkerConstellation shell(orbit::test_shell());
  space::SatelliteFleet fleet(shell.size(), space::FleetConfig{Megabytes{1000.0},
                                                               cdn::CachePolicy::kLru});
  space::PlacementConfig pcfg;
  pcfg.copies_per_plane = 2;
  const space::ContentPlacement placement(shell, pcfg);
  const std::vector<cdn::ContentItem> catalog{
      {1, Megabytes{2.0}, data::Region::kEurope},
      {2, Megabytes{2.0}, data::Region::kAsia}};
  for (const auto& item : catalog) placement.place(fleet, item, Milliseconds{0.0});

  space::RepairDaemon daemon(fleet, placement, catalog, {});
  // Invariant holds: a scan repairs nothing.
  const auto clean = daemon.run_once(Milliseconds{1.0});
  EXPECT_EQ(clean.objects_scanned, catalog.size());
  EXPECT_EQ(clean.under_replicated, 0u);

  // Crash one holder of object 1: its copies are lost until the process
  // restarts, then the next audit re-replicates from a surviving holder.
  const std::uint32_t victim = placement.replicas(1).front();
  fleet.crash_cache(victim);
  daemon.note_crash(victim, Milliseconds{10.0});
  const auto while_down = daemon.run_once(Milliseconds{20.0});
  EXPECT_GT(while_down.unrepairable, 0u);  // slot dark; repair deferred
  EXPECT_EQ(daemon.open_crashes(), 1u);

  fleet.restore_cache(victim);
  const auto repaired = daemon.run_once(Milliseconds{500.0});
  EXPECT_GT(repaired.re_replicated, 0u);
  EXPECT_EQ(repaired.ground_refills, 0u);  // space copies survived
  EXPECT_TRUE(fleet.holds(victim, 1));
  EXPECT_EQ(daemon.open_crashes(), 0u);
  ASSERT_EQ(daemon.time_to_repair().size(), 1u);
  EXPECT_DOUBLE_EQ(daemon.time_to_repair().mean(), 490.0);  // crash at 10, fixed at 500
}

TEST(RepairDaemon, FallsBackToGroundWhenAllSpaceCopiesDie) {
  const orbit::WalkerConstellation shell(orbit::test_shell());
  space::SatelliteFleet fleet(shell.size(), space::FleetConfig{Megabytes{1000.0},
                                                               cdn::CachePolicy::kLru});
  space::PlacementConfig pcfg;
  pcfg.copies_per_plane = 1;
  pcfg.plane_stride = 8;  // a single replica in the whole test shell
  const space::ContentPlacement placement(shell, pcfg);
  const std::vector<cdn::ContentItem> catalog{{7, Megabytes{2.0}, data::Region::kEurope}};
  placement.place(fleet, catalog.front(), Milliseconds{0.0});

  const auto replicas = placement.replicas(7);
  ASSERT_EQ(replicas.size(), 1u);
  fleet.crash_cache(replicas.front());
  fleet.restore_cache(replicas.front());

  space::RepairDaemon daemon(fleet, placement, catalog, {});
  const auto report = daemon.run_once(Milliseconds{100.0});
  EXPECT_EQ(report.re_replicated, 0u);
  EXPECT_EQ(report.ground_refills, 1u);  // no surviving space holder
  EXPECT_TRUE(fleet.holds(replicas.front(), 7));
}

TEST(ResilientFetch, HealthyPathSucceedsWithoutRetry) {
  // Shell 1; shared, never mutated here.
  lsn::StarlinkNetwork& network = sim::shared_world().network();
  space::SatelliteFleet fleet(network.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0},
                                                 cdn::CachePolicy::kLru});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(network, fleet, ground);

  const auto& city = data::city("London");
  const cdn::ContentItem obj{3, Megabytes{5.0}, data::Region::kEurope};
  des::Rng rng(40);
  const auto result = router.fetch_resilient(data::location(city),
                                             data::country(city.country_code), obj, rng,
                                             Milliseconds{0.0});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.retries, 0u);
  ASSERT_TRUE(result.served.has_value());
  EXPECT_EQ(result.served->tier, space::FetchTier::kGround);  // cold caches
  EXPECT_DOUBLE_EQ(result.total_latency.value(), result.served->rtt.value());
}

TEST(ResilientFetch, ExhaustsBoundedRetriesUnderTotalLoss) {
  lsn::StarlinkNetwork& network = sim::shared_world().network();
  space::SatelliteFleet fleet(network.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0},
                                                 cdn::CachePolicy::kLru});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::RouterConfig config;
  config.resilience.max_attempts = 3;
  config.resilience.attempt_timeout = Milliseconds{100.0};
  config.resilience.backoff_base = Milliseconds{10.0};
  config.resilience.transient_loss = 1.0;  // every attempt is lost in flight
  space::SpaceCdnRouter router(network, fleet, ground, config);

  const auto& city = data::city("Tokyo");
  const cdn::ContentItem obj{6, Megabytes{5.0}, data::Region::kAsia};
  des::Rng rng(41);
  const auto result = router.fetch_resilient(data::location(city),
                                             data::country(city.country_code), obj, rng,
                                             Milliseconds{0.0});
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.served.has_value());
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.retries, 2u);
  // 3 burned timeouts plus backoffs 10 and 20 ms between the attempts.
  EXPECT_DOUBLE_EQ(result.total_latency.value(), 3 * 100.0 + 10.0 + 20.0);
}

TEST(ResilientFetch, DeadlineBudgetCapsTotalLatency) {
  lsn::StarlinkNetwork& network = sim::shared_world().network();
  space::SatelliteFleet fleet(network.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0},
                                                 cdn::CachePolicy::kLru});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::RouterConfig config;
  config.resilience.max_attempts = 10;
  config.resilience.attempt_timeout = Milliseconds{100.0};
  config.resilience.backoff_base = Milliseconds{10.0};
  config.resilience.transient_loss = 1.0;  // nothing ever lands
  config.resilience.deadline = Milliseconds{250.0};
  space::SpaceCdnRouter router(network, fleet, ground, config);

  const auto& city = data::city("Tokyo");
  const cdn::ContentItem obj{6, Megabytes{5.0}, data::Region::kAsia};
  des::Rng rng(41);
  const auto result = router.fetch_resilient(data::location(city),
                                             data::country(city.country_code), obj, rng,
                                             Milliseconds{0.0});
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.deadline_exceeded);
  // 100 + 10 backoff + 100 + 20 backoff leaves a 20 ms budget for attempt 3;
  // the worst case is exactly the deadline, never more.
  EXPECT_DOUBLE_EQ(result.total_latency.value(), 250.0);
  EXPECT_EQ(result.attempts, 3u);
}

TEST(ResilientFetch, HedgeRacesSecondSatelliteAndNeverWorsensRtt) {
  lsn::StarlinkNetwork& network = sim::shared_world().network();
  space::SatelliteFleet fleet(network.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0},
                                                 cdn::CachePolicy::kLru});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  const auto& city = data::city("London");
  const cdn::ContentItem obj{3, Megabytes{5.0}, data::Region::kEurope};

  space::SpaceCdnRouter plain(network, fleet, ground);
  des::Rng rng_plain(40);
  const auto base = plain.fetch_resilient(data::location(city),
                                          data::country(city.country_code), obj,
                                          rng_plain, Milliseconds{0.0});
  ASSERT_TRUE(base.success);

  space::RouterConfig config;
  config.resilience.hedge_delay = Milliseconds{0.01};  // hedge almost always
  space::SpaceCdnRouter hedged_router(network, fleet, ground, config);
  des::Rng rng_hedged(40);
  const auto hedged = hedged_router.fetch_resilient(data::location(city),
                                                    data::country(city.country_code),
                                                    obj, rng_hedged, Milliseconds{0.0});
  ASSERT_TRUE(hedged.success);
  EXPECT_TRUE(hedged.hedged);
  // The client keeps min(primary, hedge_delay + hedge), so hedging can only
  // improve the observed RTT; a win must actually be cheaper.
  EXPECT_LE(hedged.served->rtt.value(), base.served->rtt.value());
  if (hedged.hedge_won) {
    EXPECT_LT(hedged.served->rtt.value(), base.served->rtt.value());
  }
}

// ---------------------------------------------------------------------------
// Correlated fault domains
// ---------------------------------------------------------------------------

TEST(FaultDomains, PlaneDomainCoversExactlyOnePlane) {
  const orbit::WalkerConstellation& constellation = sim::shared_world().constellation();
  const std::uint32_t plane = 3;
  const auto domain = faults::plane_domain(constellation, plane);
  EXPECT_EQ(domain.size(), constellation.design().sats_per_plane);
  for (std::uint32_t slot = 0; slot < constellation.design().sats_per_plane; ++slot) {
    EXPECT_EQ(domain.members[slot].first, Component::kSatellite);
    EXPECT_EQ(domain.members[slot].second, constellation.id_of({plane, slot}));
  }
  EXPECT_THROW((void)faults::plane_domain(constellation, constellation.design().planes),
               ConfigError);
}

TEST(FaultDomains, GatewayRegionSelectsByRadius) {
  const auto gateways = data::ground_stations();
  const geo::GeoPoint frankfurt{50.2, 8.6, 0.0};
  const Kilometers radius{2000.0};
  const auto domain =
      faults::gateway_region_domain("europe", gateways, frankfurt, radius);
  ASSERT_GE(domain.size(), 5u);  // the European teleport cluster
  EXPECT_LT(domain.size(), gateways.size());
  for (const auto& [component, target] : domain.members) {
    EXPECT_EQ(component, Component::kGroundStation);
    const auto& gw = gateways[target];
    EXPECT_LE(geo::great_circle_distance(frankfurt, {gw.lat_deg, gw.lon_deg, 0.0})
                  .value(),
              radius.value());
  }
  // A 1 km radius keeps only the epicentre's own gateway.
  EXPECT_EQ(
      faults::gateway_region_domain("fra", gateways, frankfurt, Kilometers{1.0}).size(),
      1u);
}

TEST(FaultDomains, CorrelatedTraceFansOutAtomicallyAndDeterministically) {
  const orbit::WalkerConstellation& constellation = sim::shared_world().constellation();
  const auto domain = faults::constellation_domain(constellation);
  ASSERT_EQ(domain.size(), constellation.size());
  const std::vector<faults::CorrelatedEvent> events{
      {Milliseconds{1'000.0}, Milliseconds{500.0}, 0.25}};

  des::Rng a(9), b(9), c(10);
  const auto one = faults::correlated_trace(domain, events, a);
  const auto two = faults::correlated_trace(domain, events, b);
  const auto other = faults::correlated_trace(domain, events, c);
  EXPECT_EQ(one.events(), two.events());
  EXPECT_NE(one.events(), other.events());

  const auto expected = static_cast<std::size_t>(0.25 * constellation.size() + 0.5);
  EXPECT_EQ(one.count(Component::kSatellite, Transition::kFail), expected);
  EXPECT_EQ(one.count(Component::kSatellite, Transition::kRecover), expected);
  for (const FaultEvent& event : one.events()) {
    // Atomic fan-out: every member fails and recovers at the shared instants.
    EXPECT_DOUBLE_EQ(event.at.value(),
                     event.transition == Transition::kFail ? 1'000.0 : 1'500.0);
  }
}

TEST(FaultDomains, FullFractionTakesWholeDomainWithoutRng) {
  const orbit::WalkerConstellation& constellation = sim::shared_world().constellation();
  const auto domain = faults::plane_domain(constellation, 0);
  des::Rng a(1), b(2);  // different seeds: fraction 1.0 must not consult them
  const std::vector<faults::CorrelatedEvent> events{
      {Milliseconds{100.0}, Milliseconds{50.0}, 1.0}};
  EXPECT_EQ(faults::correlated_trace(domain, events, a).events(),
            faults::correlated_trace(domain, events, b).events());
  EXPECT_EQ(faults::correlated_trace(domain, events, a).size(), 2 * domain.size());
}

TEST(FaultDomains, RejectsBadEvents) {
  const auto domain = faults::plane_domain(sim::shared_world().constellation(), 0);
  des::Rng rng(3);
  EXPECT_THROW((void)faults::correlated_trace(
                   domain, {{Milliseconds{0.0}, Milliseconds{-1.0}, 1.0}}, rng),
               ConfigError);
  EXPECT_THROW((void)faults::correlated_trace(
                   domain, {{Milliseconds{0.0}, Milliseconds{1.0}, 1.5}}, rng),
               ConfigError);
}

TEST(FaultDomains, CorrelatedScheduleIsSeededAndHorizonBounded) {
  const auto domain = faults::constellation_domain(sim::shared_world().constellation());
  const faults::CorrelatedProcess process{Milliseconds{5'000.0}, Milliseconds{1'000.0},
                                          0.1};
  const Milliseconds horizon{60'000.0};
  des::Rng a(21), b(21);
  const auto one = faults::correlated_schedule(domain, process, horizon, a);
  const auto two = faults::correlated_schedule(domain, process, horizon, b);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.events(), two.events());
  for (const FaultEvent& event : one.events()) {
    EXPECT_LT(event.at.value(), horizon.value());
  }
}

TEST(MergeSchedules, UnionDepthPreventsEarlyRecovery) {
  // A renewal blip (fail 200, recover 400) inside a correlated storm window
  // (fail 100, recover 1000) must not revive the satellite at 400.
  const auto storm = FaultSchedule::from_trace(
      {{Milliseconds{100.0}, Component::kSatellite, Transition::kFail, 5},
       {Milliseconds{1'000.0}, Component::kSatellite, Transition::kRecover, 5}});
  const auto blip = FaultSchedule::from_trace(
      {{Milliseconds{200.0}, Component::kSatellite, Transition::kFail, 5},
       {Milliseconds{400.0}, Component::kSatellite, Transition::kRecover, 5}});
  const auto merged = faults::merge_schedules({&storm, &blip});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.events()[0],
            (FaultEvent{Milliseconds{100.0}, Component::kSatellite, Transition::kFail, 5}));
  EXPECT_EQ(merged.events()[1], (FaultEvent{Milliseconds{1'000.0}, Component::kSatellite,
                                            Transition::kRecover, 5}));
}

TEST(MergeSchedules, DisjointTargetsPassThroughSorted) {
  const auto a = FaultSchedule::from_trace(
      {{Milliseconds{300.0}, Component::kSatellite, Transition::kFail, 1},
       {Milliseconds{500.0}, Component::kSatellite, Transition::kRecover, 1}});
  const auto b = FaultSchedule::from_trace(
      {{Milliseconds{100.0}, Component::kGroundStation, Transition::kFail, 2},
       {Milliseconds{200.0}, Component::kGroundStation, Transition::kRecover, 2}});
  const auto merged = faults::merge_schedules({&a, &b});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      merged.events().begin(), merged.events().end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; }));
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, OpensAfterThresholdThenProbesAfterCooldown) {
  space::CircuitBreaker breaker({.failure_threshold = 3,
                                 .open_cooldown = Milliseconds{1'000.0}});
  ASSERT_TRUE(breaker.enabled());
  EXPECT_TRUE(breaker.allow(Milliseconds{0.0}));
  breaker.record_failure(Milliseconds{10.0});
  breaker.record_failure(Milliseconds{20.0});
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kClosed);
  breaker.record_failure(Milliseconds{30.0});
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // Open: everything short-circuits until the cooldown elapses.
  EXPECT_FALSE(breaker.allow(Milliseconds{500.0}));
  EXPECT_EQ(breaker.short_circuits(), 1u);
  // Cooldown over: exactly one probe passes, concurrent calls still blocked.
  EXPECT_TRUE(breaker.allow(Milliseconds{1'031.0}));
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(Milliseconds{1'032.0}));
  // Probe succeeds: closed again, failure count reset.
  breaker.record_success();
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.allow(Milliseconds{1'040.0}));
}

TEST(CircuitBreaker, HalfOpenFailureReopens) {
  space::CircuitBreaker breaker({.failure_threshold = 1,
                                 .open_cooldown = Milliseconds{100.0}});
  breaker.record_failure(Milliseconds{0.0});
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.allow(Milliseconds{150.0}));  // half-open probe
  breaker.record_failure(Milliseconds{160.0});      // probe fails
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  // The new open window counts from the probe failure.
  EXPECT_FALSE(breaker.allow(Milliseconds{200.0}));
  EXPECT_TRUE(breaker.allow(Milliseconds{261.0}));
}

TEST(CircuitBreaker, ZeroThresholdDisables) {
  space::CircuitBreaker breaker(space::BreakerConfig{});
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 100; ++i) breaker.record_failure(Milliseconds{0.0});
  EXPECT_EQ(breaker.state(), space::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(Milliseconds{0.0}));
}

}  // namespace
}  // namespace spacecdn