// Failure-injection tests: the ISL fabric and the SpaceCDN layers under
// laser-terminal outages.
#include <gtest/gtest.h>

#include <cmath>

#include "cdn/deployment.hpp"
#include "data/datasets.hpp"
#include "geo/visibility.hpp"
#include "lsn/starlink.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/lookup.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/router.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

const orbit::WalkerConstellation& shell1() {
  static const orbit::WalkerConstellation shell(orbit::starlink_shell1());
  return shell;
}

std::vector<std::uint32_t> random_failures(double fraction, des::Rng& rng) {
  const auto count = static_cast<std::uint32_t>(fraction * shell1().size());
  return rng.sample_without_replacement(shell1().size(), count);
}

TEST(Failures, FailedSatellitesCarryNoEdges) {
  const orbit::EphemerisSnapshot snapshot(shell1(), Milliseconds{0.0});
  const std::vector<std::uint32_t> failed{10, 20, 20, 30};  // duplicate tolerated
  const lsn::IslNetwork isl(shell1(), snapshot, {}, failed);
  EXPECT_EQ(isl.failed_count(), 3u);
  EXPECT_TRUE(isl.is_failed(10));
  EXPECT_FALSE(isl.is_failed(11));
  for (const std::uint32_t sat : {10u, 20u, 30u}) {
    EXPECT_TRUE(isl.graph().neighbors(sat).empty());
  }
  // Neighbours of a failed satellite lost exactly the links towards it.
  for (const auto& edge : isl.graph().neighbors(9)) EXPECT_NE(edge.to, 10u);
}

TEST(Failures, FabricSurvivesFivePercentLoss) {
  const orbit::EphemerisSnapshot snapshot(shell1(), Milliseconds{0.0});
  des::Rng rng(31);
  const auto failed = random_failures(0.05, rng);
  const lsn::IslNetwork isl(shell1(), snapshot, {}, failed);

  // Pick a healthy source and count reachable healthy satellites.
  std::uint32_t source = 0;
  while (isl.is_failed(source)) ++source;
  const auto dist = isl.latencies_from(source);
  std::uint32_t reachable = 0, healthy = 0;
  for (std::uint32_t s = 0; s < shell1().size(); ++s) {
    if (isl.is_failed(s)) continue;
    ++healthy;
    if (!std::isinf(dist[s].value())) ++reachable;
  }
  // The +grid is 4-connected: sparse random loss must not shatter it.
  EXPECT_GT(static_cast<double>(reachable) / healthy, 0.99);
}

TEST(Failures, PathsDetourAndGetLonger) {
  const orbit::EphemerisSnapshot snapshot(shell1(), Milliseconds{0.0});
  const lsn::IslNetwork healthy(shell1(), snapshot, {});
  // Fail a wall of satellites across the direct corridor between 0 and 110.
  const auto direct = net::shortest_path(healthy.graph(), 0, 110);
  ASSERT_TRUE(direct.has_value());
  ASSERT_GT(direct->nodes.size(), 2u);
  std::vector<std::uint32_t> wall(direct->nodes.begin() + 1, direct->nodes.end() - 1);
  const lsn::IslNetwork broken(shell1(), snapshot, {}, wall);
  const auto detour = net::shortest_path(broken.graph(), 0, 110);
  ASSERT_TRUE(detour.has_value());
  EXPECT_GT(detour->total.value(), direct->total.value());
}

TEST(Failures, LookupSkipsUnreachableReplicaHolders) {
  const orbit::EphemerisSnapshot snapshot(shell1(), Milliseconds{0.0});
  space::SatelliteFleet fleet(shell1().size(),
                              space::FleetConfig{Megabytes{1000.0},
                                                 cdn::CachePolicy::kLru});
  const cdn::ContentItem obj{1, Megabytes{5.0}, data::Region::kEurope};
  // Two replicas: a close one that we fail, and a farther healthy one.
  const auto n1 = shell1().grid_neighbors(0)[0];
  const auto n2 = shell1().grid_neighbors(shell1().grid_neighbors(0)[2])[2];
  (void)fleet.cache(n1).insert(obj, Milliseconds{0.0});
  (void)fleet.cache(n2).insert(obj, Milliseconds{0.0});

  const std::vector<std::uint32_t> failed{n1};
  const lsn::IslNetwork isl(shell1(), snapshot, {}, failed);
  const auto found = space::find_replica(isl, fleet, 0, obj.id, 10);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->satellite, n2);  // the failed holder is invisible
}

TEST(Failures, BentPipeRoutesAroundFailures) {
  lsn::StarlinkConfig cfg;
  des::Rng rng(32);
  cfg.failed_satellites = random_failures(0.05, rng);
  const lsn::StarlinkNetwork degraded(cfg);
  const lsn::StarlinkNetwork healthy{};

  const geo::GeoPoint maputo = data::location(data::city("Maputo"));
  const auto broken_route =
      degraded.router().route_to_pop(maputo, data::country("MZ"));
  const auto clean_route = healthy.router().route_to_pop(maputo, data::country("MZ"));
  ASSERT_TRUE(broken_route && clean_route);
  // Still lands at Frankfurt; latency may only degrade.
  EXPECT_EQ(degraded.ground().pop(broken_route->pop).key, "frankfurt");
  EXPECT_GE(broken_route->propagation_rtt().value() + 1e-9,
            clean_route->propagation_rtt().value() * 0.95);
}

TEST(Failures, PlacementRedundancyCoversLostReplicas) {
  // With 4 copies per plane, failing any single holder leaves the object
  // within a slightly larger but still small hop budget.
  const orbit::EphemerisSnapshot snapshot(shell1(), Milliseconds{0.0});
  space::PlacementConfig pcfg;
  pcfg.copies_per_plane = 4;
  const space::ContentPlacement placement(shell1(), pcfg);
  space::SatelliteFleet fleet(shell1().size(),
                              space::FleetConfig{Megabytes{1000.0},
                                                 cdn::CachePolicy::kLru});
  const cdn::ContentItem obj{5, Megabytes{5.0}, data::Region::kAsia};
  placement.place(fleet, obj, Milliseconds{0.0});

  const auto replicas = placement.replicas(obj.id);
  const std::vector<std::uint32_t> failed{replicas.front()};
  const lsn::IslNetwork isl(shell1(), snapshot, {}, failed);

  des::Rng rng(33);
  for (int probe = 0; probe < 50; ++probe) {
    std::uint32_t origin = 0;
    do {
      origin = static_cast<std::uint32_t>(rng.uniform_int(0, shell1().size() - 1));
    } while (isl.is_failed(origin));
    const auto found = space::find_replica(isl, fleet, origin, obj.id, 8);
    ASSERT_TRUE(found.has_value()) << "origin " << origin;
    EXPECT_LE(found->hops, 8u);
  }
}

TEST(Failures, FailRecoverRestoresRoutesBitIdentically) {
  // Incremental surgery must be exact: recover() re-adds every edge with the
  // same weight formula over the same snapshot geometry, so shortest-path
  // latencies return to the pristine values bit-for-bit (not just within a
  // tolerance).  The asymmetric phase-nearest pairing is the trap here --
  // restoring only a satellite's *own* chosen partners would leave dangling
  // one-way edges.
  const orbit::WalkerConstellation shell(orbit::test_shell());
  const orbit::EphemerisSnapshot snapshot(shell, Milliseconds{0.0});
  lsn::IslNetwork isl(shell, snapshot, {});

  std::vector<std::vector<Milliseconds>> pristine;
  for (std::uint32_t s = 0; s < shell.size(); ++s) {
    pristine.push_back(isl.latencies_from(s));
  }

  for (const std::uint32_t sat : {0u, 13u, 42u}) isl.fail(sat);
  EXPECT_EQ(isl.failed_count(), 3u);
  EXPECT_TRUE(isl.graph().neighbors(13).empty());
  for (const std::uint32_t sat : {42u, 0u, 13u}) isl.recover(sat);
  EXPECT_EQ(isl.failed_count(), 0u);

  for (std::uint32_t s = 0; s < shell.size(); ++s) {
    const auto restored = isl.latencies_from(s);
    for (std::uint32_t d = 0; d < shell.size(); ++d) {
      ASSERT_EQ(restored[d].value(), pristine[s][d].value())
          << "path " << s << " -> " << d << " not bit-identical after recovery";
    }
  }
}

TEST(Failures, FailRecoverAreIdempotent) {
  const orbit::WalkerConstellation shell(orbit::test_shell());
  const orbit::EphemerisSnapshot snapshot(shell, Milliseconds{0.0});
  lsn::IslNetwork isl(shell, snapshot, {});
  const std::size_t edges = isl.graph().edge_count();

  isl.fail(7);
  isl.fail(7);  // double-fail must not corrupt counters or adjacency
  EXPECT_EQ(isl.failed_count(), 1u);
  isl.recover(7);
  isl.recover(7);
  EXPECT_EQ(isl.failed_count(), 0u);
  EXPECT_EQ(isl.graph().edge_count(), edges);
}

TEST(Failures, ResilientFetchAccountingConsistentUnderFaults) {
  // Regression: FetchResult bookkeeping (isl_hops / source_satellite /
  // ground_cache_hit) must stay consistent with the served tier when faults
  // force the router off its preferred path.
  const lsn::StarlinkNetwork network{};
  space::SatelliteFleet fleet(
      network.constellation().size(),
      space::FleetConfig{Megabytes{1000.0}, cdn::CachePolicy::kLru});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::RouterConfig rcfg;
  rcfg.admit_on_fetch = false;
  space::SpaceCdnRouter router(network, fleet, ground, rcfg);

  constexpr Milliseconds t0{0.0};
  const double min_elev = network.config().user_min_elevation_deg;
  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto preferred = network.snapshot().serving_satellite(client, min_elev);
  ASSERT_TRUE(preferred.has_value());
  fleet.set_online(*preferred, false);

  // The fault-aware serving choice: the highest-elevation *online* visible
  // satellite (exact ties to the lowest id).
  std::optional<std::uint32_t> fallback;
  double best_elevation = 0.0;
  for (const std::uint32_t sat :
       network.snapshot().visible_satellites(client, min_elev)) {
    if (!fleet.online(sat)) continue;
    const double elevation =
        geo::elevation_angle_deg(client, network.snapshot().position(sat));
    if (!fallback || elevation > best_elevation) {
      fallback = sat;
      best_elevation = elevation;
    }
  }
  ASSERT_TRUE(fallback.has_value());
  ASSERT_NE(*fallback, *preferred);

  // Tier (i) from the fallback satellite: zero hops, source == server.
  const cdn::ContentItem obj{61, Megabytes{5.0}, data::Region::kEurope};
  ASSERT_TRUE(fleet.cache(*fallback).insert(obj, t0));
  des::Rng rng(34);
  const auto r1 = router.fetch_resilient(client, data::country("MZ"), obj, rng, t0);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r1.served.has_value());
  EXPECT_EQ(r1.served->tier, space::FetchTier::kServingSatellite);
  EXPECT_EQ(r1.served->source_satellite, *fallback);
  EXPECT_EQ(r1.served->isl_hops, 0u);
  EXPECT_FALSE(r1.served->ground_cache_hit);
  EXPECT_EQ(r1.attempts, 1u);
  EXPECT_DOUBLE_EQ(r1.total_latency.value(), r1.served->rtt.value());

  // Crash the only space holder of a second object: tier (ii) must skip the
  // dead cache and the ground tier's accounting takes over (source 0, cold
  // edge miss).
  const cdn::ContentItem obj2{62, Megabytes{5.0}, data::Region::kEurope};
  const auto holder = network.constellation().grid_neighbors(*fallback)[0];
  ASSERT_TRUE(fleet.cache(holder).insert(obj2, t0));
  fleet.crash_cache(holder);
  const auto r2 = router.fetch_resilient(client, data::country("MZ"), obj2, rng, t0);
  ASSERT_TRUE(r2.success);
  ASSERT_TRUE(r2.served.has_value());
  EXPECT_EQ(r2.served->tier, space::FetchTier::kGround);
  EXPECT_EQ(r2.served->source_satellite, 0u);
  EXPECT_FALSE(r2.served->ground_cache_hit);
}

TEST(Failures, CacheCrashLosesContentsUntilRestore) {
  space::SatelliteFleet fleet(16, space::FleetConfig{Megabytes{1000.0},
                                                     cdn::CachePolicy::kLru});
  const cdn::ContentItem obj{9, Megabytes{5.0}, data::Region::kEurope};
  ASSERT_TRUE(fleet.cache(3).insert(obj, Milliseconds{0.0}));
  ASSERT_TRUE(fleet.holds(3, obj.id));

  fleet.crash_cache(3);
  EXPECT_FALSE(fleet.cache_up(3));
  EXPECT_FALSE(fleet.cache_enabled(3));  // no service while crashed
  EXPECT_FALSE(fleet.holds(3, obj.id));  // contents are gone, not hidden
  EXPECT_FALSE(fleet.cache(3).contains(obj.id));

  fleet.restore_cache(3);
  EXPECT_TRUE(fleet.cache_up(3));
  EXPECT_TRUE(fleet.cache_enabled(3));
  // Back up but empty: a restore is not a recovery of the lost bytes.
  EXPECT_FALSE(fleet.holds(3, obj.id));
  ASSERT_TRUE(fleet.cache(3).insert(obj, Milliseconds{1.0}));
  EXPECT_TRUE(fleet.holds(3, obj.id));
}

TEST(Failures, OfflineSatelliteKeepsContentsButServesNothing) {
  space::SatelliteFleet fleet(16, space::FleetConfig{Megabytes{1000.0},
                                                     cdn::CachePolicy::kLru});
  const cdn::ContentItem obj{4, Megabytes{5.0}, data::Region::kAsia};
  ASSERT_TRUE(fleet.cache(5).insert(obj, Milliseconds{0.0}));

  fleet.set_online(5, false);
  EXPECT_FALSE(fleet.cache_enabled(5));
  EXPECT_FALSE(fleet.holds(5, obj.id));  // dark satellites serve nothing
  fleet.set_online(5, true);
  EXPECT_TRUE(fleet.holds(5, obj.id));  // the bus rebooted; the disks survived
}

TEST(Failures, AddingFailuresNeverShortensAnyPath) {
  // Monotonicity: removing edges can only keep shortest paths equal or make
  // them longer (or unreachable).  Checked over all pairs of the test shell
  // as satellites fail one by one.
  const orbit::WalkerConstellation shell(orbit::test_shell());
  const orbit::EphemerisSnapshot snapshot(shell, Milliseconds{0.0});
  lsn::IslNetwork isl(shell, snapshot, {});

  std::vector<std::vector<Milliseconds>> before;
  for (std::uint32_t s = 0; s < shell.size(); ++s) {
    before.push_back(isl.latencies_from(s));
  }

  for (const std::uint32_t failed : {9u, 27u, 50u}) {
    isl.fail(failed);
    for (std::uint32_t s = 0; s < shell.size(); ++s) {
      if (isl.is_failed(s)) continue;
      const auto after = isl.latencies_from(s);
      for (std::uint32_t d = 0; d < shell.size(); ++d) {
        if (isl.is_failed(d)) continue;
        ASSERT_GE(after[d].value(), before[s][d].value())
            << "failing " << failed << " shortened " << s << " -> " << d;
      }
      before[s] = after;
    }
  }
}

}  // namespace
}  // namespace spacecdn
