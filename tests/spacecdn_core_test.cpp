// Unit tests for the SpaceCDN core: fleet, placement, lookup, 3-tier
// routing, duty cycling, striping, content bubbles.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/datasets.hpp"
#include "sim/world.hpp"
#include "spacecdn/bubbles.hpp"
#include "spacecdn/duty_cycle.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/lookup.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/router.hpp"
#include "spacecdn/striping.hpp"
#include "util/error.hpp"

namespace spacecdn::space {
namespace {

constexpr Milliseconds kNow{0.0};

const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

cdn::ContentItem item(cdn::ContentId id, double mb = 10.0) {
  return cdn::ContentItem{id, Megabytes{mb}, data::Region::kEurope};
}

FleetConfig small_fleet_config() {
  FleetConfig cfg;
  cfg.capacity_per_satellite = Megabytes{1000.0};
  return cfg;
}

TEST(Fleet, SizingMatchesPaperStorageClaim) {
  // Paper section 5: ~150 TB per satellite; 6,000 satellites -> >900 PB.
  const FleetConfig cfg;
  EXPECT_NEAR(cfg.capacity_per_satellite.value(), 150e6 / 1000.0, 1.0);  // 150 TB in MB
  SatelliteFleet fleet(1584, cfg);
  EXPECT_GT(fleet.total_capacity().value(), 2.3e8);  // > 237 PB for Shell 1 alone
}

TEST(Fleet, EnableMaskControlsService) {
  SatelliteFleet fleet(10, small_fleet_config());
  EXPECT_EQ(fleet.enabled_count(), 10u);
  fleet.set_enabled({1, 3, 5});
  EXPECT_EQ(fleet.enabled_count(), 3u);
  EXPECT_TRUE(fleet.cache_enabled(3));
  EXPECT_FALSE(fleet.cache_enabled(0));
  fleet.enable_all();
  EXPECT_EQ(fleet.enabled_count(), 10u);
}

TEST(Fleet, HoldsRequiresEnabledAndPresent) {
  SatelliteFleet fleet(4, small_fleet_config());
  (void)fleet.cache(2).insert(item(7), kNow);
  EXPECT_TRUE(fleet.holds(2, 7));
  fleet.set_enabled({0, 1});
  EXPECT_FALSE(fleet.holds(2, 7));  // disabled satellites do not serve
  EXPECT_FALSE(fleet.holds(0, 7));  // enabled but empty
}

TEST(Fleet, AggregateStats) {
  SatelliteFleet fleet(3, small_fleet_config());
  (void)fleet.cache(0).insert(item(1), kNow);
  (void)fleet.cache(0).access(1, kNow);
  (void)fleet.cache(1).access(99, kNow);
  const auto stats = fleet.aggregate_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(Placement, CopiesPerPlaneSpacing) {
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  PlacementConfig cfg;
  cfg.copies_per_plane = 4;
  const ContentPlacement placement(c, cfg);
  const auto replicas = placement.replicas(123);
  EXPECT_EQ(replicas.size(), 72u * 4u);
  // Within each plane, replicas are evenly spaced (22/4 -> gaps of 5-6).
  std::vector<std::uint32_t> plane0;
  for (std::uint32_t sat : replicas) {
    if (c.index_of(sat).plane == 0) plane0.push_back(c.index_of(sat).in_plane);
  }
  ASSERT_EQ(plane0.size(), 4u);
  std::sort(plane0.begin(), plane0.end());
  for (std::size_t i = 1; i < plane0.size(); ++i) {
    const std::uint32_t gap = plane0[i] - plane0[i - 1];
    EXPECT_GE(gap, 5u);
    EXPECT_LE(gap, 6u);
  }
}

TEST(Placement, DifferentObjectsDifferentSatellites) {
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  const ContentPlacement placement(c, {});
  EXPECT_NE(placement.replicas(1), placement.replicas(2));
}

TEST(Placement, GridHopDistanceIsMetric) {
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  const ContentPlacement placement(c, {});
  EXPECT_EQ(placement.grid_hop_distance(5, 5), 0u);
  EXPECT_EQ(placement.grid_hop_distance(5, 6), 1u);
  // Symmetry and wrap-around: slot 0 and slot 21 in a plane are adjacent.
  EXPECT_EQ(placement.grid_hop_distance(0, 21), 1u);
  EXPECT_EQ(placement.grid_hop_distance(3, 100), placement.grid_hop_distance(100, 3));
}

TEST(Placement, PaperClaimFourCopiesWithinFiveHops) {
  // Section 4: "with around 4 copies distributed within each plane, an
  // object can be reachable within 5 hops, even within a single orbital
  // plane".
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  PlacementConfig cfg;
  cfg.copies_per_plane = 4;
  const ContentPlacement placement(c, cfg);
  des::Rng rng(1);
  const auto stats = placement.analyze(2000, 1000, rng);
  EXPECT_LE(stats.max_hops, 5u);
  EXPECT_LT(stats.mean_hops, 3.0);
}

TEST(Placement, MoreCopiesFewerHops) {
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  des::Rng rng(2);
  double prev_mean = 1e9;
  for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
    PlacementConfig cfg;
    cfg.copies_per_plane = k;
    const auto stats = ContentPlacement(c, cfg).analyze(1000, 500, rng);
    EXPECT_LT(stats.mean_hops, prev_mean);
    prev_mean = stats.mean_hops;
  }
}

TEST(Placement, PlaceInsertsIntoFleet) {
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  SatelliteFleet fleet(c.size(), small_fleet_config());
  const ContentPlacement placement(c, {});
  placement.place(fleet, item(42), kNow);
  for (std::uint32_t sat : placement.replicas(42)) {
    EXPECT_TRUE(fleet.cache(sat).contains(42));
  }
}

TEST(Placement, RejectsBadConfig) {
  const orbit::WalkerConstellation c(orbit::starlink_shell1());
  PlacementConfig cfg;
  cfg.copies_per_plane = 0;
  EXPECT_THROW(ContentPlacement(c, cfg), ConfigError);
  cfg.copies_per_plane = 23;  // more than satellites per plane
  EXPECT_THROW(ContentPlacement(c, cfg), ConfigError);
  cfg = PlacementConfig{};
  // Regression: a stride past the plane count used to be accepted silently
  // and collapsed every replica onto plane 0 (stride % planes wraps).
  cfg.plane_stride = c.plane_count() + 1;
  EXPECT_THROW(ContentPlacement(c, cfg), ConfigError);
}

TEST(Lookup, FindsReplicaAtMinimalHops) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  // Place the object 2 hops away from satellite 0 (neighbor of neighbor).
  const auto n1 = net.constellation().grid_neighbors(0)[0];
  const auto n2 = net.constellation().grid_neighbors(n1)[0];
  ASSERT_NE(n2, 0u);
  (void)fleet.cache(n2).insert(item(5), kNow);
  const auto found = find_replica(net.isl(), fleet, 0, 5, 10);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->satellite, n2);
  EXPECT_EQ(found->hops, 2u);
  EXPECT_GT(found->isl_latency.value(), 0.0);
}

TEST(Lookup, RespectsHopBudget) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  // Object on the far side of the constellation.
  (void)fleet.cache(792).insert(item(6), kNow);
  EXPECT_FALSE(find_replica(net.isl(), fleet, 0, 6, 2).has_value());
  EXPECT_TRUE(find_replica(net.isl(), fleet, 0, 6, 64).has_value());
}

TEST(Lookup, OriginHoldingIsZeroHops) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  (void)fleet.cache(17).insert(item(7), kNow);
  const auto found = find_replica(net.isl(), fleet, 17, 7, 5);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->hops, 0u);
  EXPECT_DOUBLE_EQ(found->isl_latency.value(), 0.0);
}

TEST(Lookup, SkipsDisabledCaches) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  const auto n1 = net.constellation().grid_neighbors(0)[0];
  (void)fleet.cache(n1).insert(item(8), kNow);
  fleet.set_enabled({0});  // n1 is now a relay
  EXPECT_FALSE(find_replica(net.isl(), fleet, 0, 8, 5).has_value());
}

TEST(Lookup, FindEnabledCacheIgnoresContent) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  fleet.set_enabled({500});
  const auto found = find_enabled_cache(net.isl(), fleet, 500, 0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->satellite, 500u);
}

TEST(Router, TierOneWhenOverheadSatelliteHolds) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  SpaceCdnRouter router(net, fleet, ground);

  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto serving = net.snapshot().serving_satellite(client, 25.0);
  ASSERT_TRUE(serving.has_value());
  (void)fleet.cache(*serving).insert(item(1), kNow);

  des::Rng rng(3);
  const auto result = router.fetch(client, data::country("MZ"), item(1), rng, kNow);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->tier, FetchTier::kServingSatellite);
  EXPECT_EQ(result->isl_hops, 0u);
  // One space hop: a few ms propagation + access overhead.
  EXPECT_LT(result->rtt.value(), 80.0);
}

TEST(Router, TierTwoOverIsls) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  RouterConfig cfg;
  cfg.admit_on_fetch = false;
  SpaceCdnRouter router(net, fleet, ground, cfg);

  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto serving = net.snapshot().serving_satellite(client, 25.0);
  ASSERT_TRUE(serving.has_value());
  const auto neighbor = net.constellation().grid_neighbors(*serving)[2];
  (void)fleet.cache(neighbor).insert(item(2), kNow);

  des::Rng rng(4);
  const auto result = router.fetch(client, data::country("MZ"), item(2), rng, kNow);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->tier, FetchTier::kIslNeighbor);
  EXPECT_EQ(result->isl_hops, 1u);
  EXPECT_EQ(result->source_satellite, neighbor);
}

TEST(Router, TierThreeFallsBackToGround) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  SpaceCdnRouter router(net, fleet, ground);

  des::Rng rng(5);
  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto result = router.fetch(client, data::country("MZ"), item(3), rng, kNow);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->tier, FetchTier::kGround);
  EXPECT_FALSE(result->ground_cache_hit);  // cold edge: origin fetch
  // Bent pipe to Frankfurt: >100 ms.
  EXPECT_GT(result->rtt.value(), 100.0);
}

TEST(Router, AdmitOnFetchWarmsServingSatellite) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  SpaceCdnRouter router(net, fleet, ground);

  des::Rng rng(6);
  const geo::GeoPoint client = data::location(data::city("Tokyo"));
  const auto first = router.fetch(client, data::country("JP"), item(4), rng, kNow);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tier, FetchTier::kGround);
  const auto second = router.fetch(client, data::country("JP"), item(4), rng, kNow);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tier, FetchTier::kServingSatellite);
  EXPECT_LT(second->rtt.value(), first->rtt.value());
}

TEST(Router, FetchResultAccountingConsistentPerTier) {
  // Regression: the FetchResult bookkeeping fields must match the served
  // tier for every tier.
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  RouterConfig cfg;
  cfg.admit_on_fetch = false;  // keep each fetch on its intended tier
  SpaceCdnRouter router(net, fleet, ground, cfg);

  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto serving = net.snapshot().serving_satellite(client, 25.0);
  ASSERT_TRUE(serving.has_value());
  des::Rng rng(11);

  // Tier (i): the overhead satellite serves, so no ISL hops, the source is
  // the serving satellite itself, and the ground edge never saw the request.
  (void)fleet.cache(*serving).insert(item(41), kNow);
  const auto tier1 = router.fetch(client, data::country("MZ"), item(41), rng, kNow);
  ASSERT_TRUE(tier1.has_value());
  ASSERT_EQ(tier1->tier, FetchTier::kServingSatellite);
  EXPECT_EQ(tier1->isl_hops, 0u);
  EXPECT_EQ(tier1->source_satellite, *serving);
  EXPECT_FALSE(tier1->ground_cache_hit);

  // Tier (ii): the replica sits on a grid neighbour -- one hop, source is
  // the holder, still no ground involvement.
  const auto neighbor = net.constellation().grid_neighbors(*serving)[1];
  (void)fleet.cache(neighbor).insert(item(42), kNow);
  const auto tier2 = router.fetch(client, data::country("MZ"), item(42), rng, kNow);
  ASSERT_TRUE(tier2.has_value());
  ASSERT_EQ(tier2->tier, FetchTier::kIslNeighbor);
  EXPECT_GE(tier2->isl_hops, 1u);
  EXPECT_EQ(tier2->source_satellite, neighbor);
  EXPECT_FALSE(tier2->ground_cache_hit);

  // Tier (iii): space holds nothing, so the bent pipe serves.  The source
  // satellite is not meaningful (0) and the first fetch misses the edge;
  // repeating it hits the now-warm edge cache.
  const auto cold = router.fetch(client, data::country("MZ"), item(43), rng, kNow);
  ASSERT_TRUE(cold.has_value());
  ASSERT_EQ(cold->tier, FetchTier::kGround);
  EXPECT_EQ(cold->source_satellite, 0u);
  EXPECT_FALSE(cold->ground_cache_hit);
  const auto warm = router.fetch(client, data::country("MZ"), item(43), rng, kNow);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->tier, FetchTier::kGround);
  EXPECT_TRUE(warm->ground_cache_hit);
  EXPECT_LT(warm->rtt.value(), cold->rtt.value());
}

TEST(Router, NoCoverageReturnsNullopt) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  SpaceCdnRouter router(net, fleet, ground);
  des::Rng rng(7);
  EXPECT_FALSE(
      router.fetch({89.0, 0.0, 0.0}, data::country("US"), item(5), rng, kNow).has_value());
}

TEST(DutyCycle, NewSlotEnablesRequestedFraction) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  DutyCycleConfig cfg;
  cfg.cache_fraction = 0.5;
  DutyCycleSimulation sim(net, fleet, cfg);
  des::Rng rng(8);
  sim.new_slot(rng);
  EXPECT_EQ(fleet.enabled_count(), 792u);
}

TEST(DutyCycle, FullFractionMatchesDirectOverhead) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  DutyCycleConfig cfg;
  cfg.cache_fraction = 1.0;
  DutyCycleSimulation sim(net, fleet, cfg);
  des::Rng rng(9);
  sim.new_slot(rng);
  const auto rtt = sim.sample_fetch_rtt(data::location(data::city("London")), rng);
  ASSERT_TRUE(rtt.has_value());
  // Every satellite caches: zero ISL relays, so uplink + access only.
  EXPECT_LT(rtt->value(), 60.0);
}

TEST(DutyCycle, LowerFractionHigherLatency) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  des::Rng rng(10);
  const std::vector<geo::GeoPoint> clients{data::location(data::city("London")),
                                           data::location(data::city("Sao Paulo")),
                                           data::location(data::city("Tokyo"))};
  double prev_median = 0.0;
  for (const double fraction : {0.8, 0.3, 0.05}) {
    DutyCycleConfig cfg;
    cfg.cache_fraction = fraction;
    DutyCycleSimulation sim(net, fleet, cfg);
    const auto samples = sim.run(clients, 10, 5, rng);
    EXPECT_GT(samples.median(), prev_median);
    prev_median = samples.median();
  }
}

TEST(DutyCycle, RejectsBadFraction) {
  const auto& net = shell1();
  SatelliteFleet fleet(net.constellation().size(), small_fleet_config());
  DutyCycleConfig cfg;
  cfg.cache_fraction = 0.0;
  EXPECT_THROW(DutyCycleSimulation(net, fleet, cfg), ConfigError);
}

TEST(Striping, PlanCoversWholeVideo) {
  const StripingPlanner planner(shell1().constellation());
  const auto plan = planner.plan(data::location(data::city("London")), kNow,
                                 Milliseconds::from_minutes(30.0),
                                 Milliseconds::from_minutes(4.0));
  ASSERT_EQ(plan.size(), 8u);  // ceil(30 / 4)
  EXPECT_DOUBLE_EQ(plan.front().start.value(), 0.0);
  EXPECT_DOUBLE_EQ(plan.back().end.value(), Milliseconds::from_minutes(30.0).value());
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan[i].start.value(), plan[i - 1].end.value());
  }
}

TEST(Striping, SuccessiveStripesUseDifferentSatellites) {
  // Satellites leave view within 5-10 minutes (paper section 2), so stripes
  // minutes apart are served by different satellites.
  const StripingPlanner planner(shell1().constellation());
  const auto plan = planner.plan(data::location(data::city("Tokyo")), kNow,
                                 Milliseconds::from_minutes(20.0),
                                 Milliseconds::from_minutes(5.0));
  ASSERT_GE(plan.size(), 3u);
  ASSERT_TRUE(plan[0].satellite && plan[2].satellite);
  EXPECT_NE(*plan[0].satellite, *plan[2].satellite);
}

TEST(Striping, StripedBeatsGroundForRemoteUsers) {
  const auto& net = shell1();
  const StripingPlanner planner(net.constellation());
  const StripedPlaybackSimulator sim(net, planner);
  des::Rng rng(11);
  const geo::GeoPoint user = data::location(data::city("Maputo"));
  const auto striped =
      sim.simulate_striped(user, data::country("MZ"), Milliseconds::from_minutes(20.0),
                           Milliseconds::from_minutes(4.0), Megabytes{180.0}, rng);
  const auto ground =
      sim.simulate_ground(user, data::country("MZ"), Milliseconds::from_minutes(20.0),
                          Milliseconds::from_minutes(4.0), Megabytes{180.0}, rng);
  EXPECT_EQ(striped.stripes_total, 5u);
  EXPECT_GT(striped.stripes_from_space, 0u);
  EXPECT_LT(striped.mean_stripe_rtt.value(), ground.mean_stripe_rtt.value());
  EXPECT_GT(striped.prefetch_upload.value(), 0.0);
}

TEST(Striping, RejectsBadDurations) {
  const StripingPlanner planner(shell1().constellation());
  EXPECT_THROW((void)planner.plan({0, 0, 0}, kNow, Milliseconds{0.0}, Milliseconds{1.0}),
               ConfigError);
}

TEST(Bubbles, RegionUnderSubpoint) {
  des::Rng rng(12);
  const cdn::ContentCatalog catalog({.object_count = 100}, rng);
  const cdn::RegionalPopularity pop(100, {});
  const ContentBubbleManager bubbles(catalog, pop, {});
  EXPECT_EQ(bubbles.region_under(data::location(data::city("Nairobi"))),
            data::Region::kAfrica);
  EXPECT_EQ(bubbles.region_under(data::location(data::city("Paris"))),
            data::Region::kEurope);
}

TEST(Bubbles, RefreshPrefetchesRegionalHead) {
  des::Rng rng(13);
  const cdn::ContentCatalog catalog({.object_count = 1000}, rng);
  const cdn::RegionalPopularity pop(1000, {});
  BubbleConfig cfg;
  cfg.prefetch_top_k = 50;
  const ContentBubbleManager bubbles(catalog, pop, cfg);

  SatelliteFleet fleet(4, FleetConfig{Megabytes{1e6}, cdn::CachePolicy::kLru});
  const geo::GeoPoint over_africa = data::location(data::city("Kigali"));
  const auto inserted = bubbles.refresh(fleet, 0, over_africa, kNow);
  EXPECT_EQ(inserted, 50u);
  for (cdn::ContentId id : pop.top_k(data::Region::kAfrica, 50)) {
    EXPECT_TRUE(fleet.cache(0).contains(id));
  }
}

TEST(Bubbles, CrossingRegionsSwapsContent) {
  des::Rng rng(14);
  const cdn::ContentCatalog catalog({.object_count = 2000}, rng);
  cdn::PopularityConfig pop_cfg;
  pop_cfg.global_share = 0.0;  // fully regional content
  const cdn::RegionalPopularity pop(2000, pop_cfg);
  BubbleConfig cfg;
  cfg.prefetch_top_k = 100;
  const ContentBubbleManager bubbles(catalog, pop, cfg);

  SatelliteFleet fleet(1, FleetConfig{Megabytes{1e6}, cdn::CachePolicy::kLru});
  (void)bubbles.refresh(fleet, 0, data::location(data::city("New York")), kNow);
  const auto na_stats = fleet.cache(0).object_count();
  (void)bubbles.refresh(fleet, 0, data::location(data::city("Berlin")), kNow);
  // The European head is now resident...
  std::uint64_t resident_eu = 0;
  for (cdn::ContentId id : pop.top_k(data::Region::kEurope, 100)) {
    resident_eu += fleet.cache(0).contains(id) ? 1 : 0;
  }
  EXPECT_EQ(resident_eu, 100u);
  // ...and foreign unpopular objects were evicted rather than accumulated.
  EXPECT_LE(fleet.cache(0).object_count(), na_stats + 100);
}

}  // namespace
}  // namespace spacecdn::space
