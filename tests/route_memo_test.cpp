// Differential tests for the per-snapshot routing memos: BentPipeRouter's
// (serving satellite, PoP) legs, IslNetwork's BFS hop rings, and
// SpaceCdnRouter's ground site per PoP.  Each memoised answer must equal the
// from-scratch computation bit for bit, across gateway flips, satellite
// fail/recover and ephemeris advances, and under concurrent queries.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdn/deployment.hpp"
#include "data/datasets.hpp"
#include "des/random.hpp"
#include "lsn/starlink.hpp"
#include "net/graph.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/router.hpp"
#include "util/thread_pool.hpp"

namespace spacecdn {
namespace {

constexpr std::array<const char*, 4> kPresets{"shell1", "test-shell", "starlink-4shell",
                                              "gen2-10k"};

/// A uniformly random point at |latitude| <= 50, where every preset has
/// satellites overhead most of the time.
geo::GeoPoint random_client(des::Rng& rng) {
  return {rng.uniform(-50.0, 50.0), rng.uniform(-180.0, 180.0), 0.0};
}

const data::CountryInfo& random_country(des::Rng& rng) {
  const auto countries = data::countries();
  return countries[rng.uniform_int(0, countries.size() - 1)];
}

/// The route a router with an empty memo computes.
std::optional<lsn::RouteBreakdown> fresh_route(const lsn::StarlinkNetwork& net,
                                               std::uint32_t serving,
                                               const geo::GeoPoint& client,
                                               const data::CountryInfo& country) {
  const lsn::BentPipeRouter fresh(net.ground(), net.isl(),
                                  net.config().user_min_elevation_deg,
                                  net.config().gateway_min_elevation_deg);
  return fresh.route_from_satellite(serving, client, country);
}

void expect_same_route(const std::optional<lsn::RouteBreakdown>& got,
                       const std::optional<lsn::RouteBreakdown>& want,
                       const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->serving_satellite, want->serving_satellite) << where;
  EXPECT_EQ(got->landing_satellite, want->landing_satellite) << where;
  EXPECT_EQ(got->gateway, want->gateway) << where;
  EXPECT_EQ(got->pop, want->pop) << where;
  EXPECT_EQ(got->isl_hops, want->isl_hops) << where;
  EXPECT_EQ(got->uplink.value(), want->uplink.value()) << where;
  EXPECT_EQ(got->isl.value(), want->isl.value()) << where;
  EXPECT_EQ(got->downlink.value(), want->downlink.value()) << where;
  EXPECT_EQ(got->gateway_haul.value(), want->gateway_haul.value()) << where;
  EXPECT_EQ(got->pop_to_destination.value(), want->pop_to_destination.value()) << where;
}

void expect_same_ring(const std::vector<net::HopDistance>& got,
                      const std::vector<net::HopDistance>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << where << " at " << i;
    EXPECT_EQ(got[i].hops, want[i].hops) << where << " at " << i;
  }
}

/// What the last query touched: mutating it is what a stale memo would miss
/// (a random gateway or satellite out of thousands rarely lies on a route).
struct Touched {
  std::size_t gateway = 0;
  std::uint32_t satellite = 0;
};

/// One random mutation of the state the memos key on: flipping the touched
/// gateway, failing the touched satellite, recovering the last failed one,
/// or an ephemeris advance.
void mutate(lsn::StarlinkNetwork& net, des::Rng& rng, const Touched& touched,
            std::vector<std::uint32_t>& failed_sats, const std::string& where) {
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::uint64_t before = net.ground().failure_version();
      const bool failed = net.ground().gateway_failed(touched.gateway);
      net.set_gateway_failed(touched.gateway, !failed);
      EXPECT_EQ(net.ground().failure_version(), before + 1) << where;
      break;
    }
    case 1:
      if (!net.isl().is_failed(touched.satellite)) {
        net.fail_satellite(touched.satellite);
        failed_sats.push_back(touched.satellite);
      }
      break;
    case 2:
      if (!failed_sats.empty()) {
        net.recover_satellite(failed_sats.back());
        failed_sats.pop_back();
      }
      break;
    default:
      net.set_time(net.time() + Milliseconds::from_seconds(20.0));
      break;
  }
}

TEST(RouteMemo, MatchesFreshRouterAcrossMutationsOnAllPresets) {
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    const char* preset = kPresets[p];
    lsn::StarlinkNetwork net(lsn::starlink_preset(preset));
    des::Rng rng(des::mix_seed(13, p));
    // A small pool of serving satellites so (serving, PoP) pairs repeat and
    // the memo is hit, not only filled.
    std::array<std::uint32_t, 4> pool{};
    for (auto& sat : pool) {
      sat = static_cast<std::uint32_t>(rng.uniform_int(0, net.snapshot().size() - 1));
    }
    std::vector<std::uint32_t> failed_sats;
    Touched touched;
    std::uint32_t serving = pool[0];
    geo::GeoPoint client = random_client(rng);
    const data::CountryInfo* country = &random_country(rng);
    for (int q = 0; q < 48; ++q) {
      const std::string where = std::string(preset) + " query " + std::to_string(q);
      if (q % 3 == 2) {
        // Mutate, then repeat the previous query: its leg is memoised.
        mutate(net, rng, touched, failed_sats, where);
      } else {
        serving = pool[rng.uniform_int(0, pool.size() - 1)];
        client = random_client(rng);
        country = &random_country(rng);
      }
      const auto route = net.router().route_from_satellite(serving, client, *country);
      expect_same_route(route, fresh_route(net, serving, client, *country), where);
      if (route) touched = {route->gateway, route->landing_satellite};
    }
  }
}

TEST(RouteMemo, HopRingsMatchBfsAcrossMutationsOnAllPresets) {
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    const char* preset = kPresets[p];
    lsn::StarlinkNetwork net(lsn::starlink_preset(preset));
    des::Rng rng(des::mix_seed(17, p));
    std::array<std::uint32_t, 4> pool{};
    for (auto& sat : pool) {
      sat = static_cast<std::uint32_t>(rng.uniform_int(0, net.snapshot().size() - 1));
    }
    std::vector<std::uint32_t> failed_sats;
    Touched touched;
    std::uint32_t origin = pool[0];
    std::uint32_t max_hops = 1;
    for (int q = 0; q < 48; ++q) {
      const std::string where = std::string(preset) + " query " + std::to_string(q);
      if (q % 3 == 2) {
        // Mutate, then repeat the previous query: its ring is memoised.
        mutate(net, rng, touched, failed_sats, where);
      } else {
        origin = pool[rng.uniform_int(0, pool.size() - 1)];
        max_hops = static_cast<std::uint32_t>(rng.uniform_int(1, 10));
      }
      const auto ring = net.isl().within_hops(origin, max_hops);
      expect_same_ring(*ring, net::nodes_within_hops(net.isl().graph(), origin, max_hops),
                       where);
      // A repeated query is served from the memo.
      EXPECT_EQ(net.isl().within_hops(origin, max_hops), ring) << where;
      if (ring->size() > 1) {
        touched.satellite = (*ring)[rng.uniform_int(1, ring->size() - 1)].node;
      }
    }
  }
}

TEST(RouteMemo, FailingTheMemoisedGatewayChangesTheRoute) {
  lsn::StarlinkNetwork net;
  const geo::GeoPoint maputo = data::location(data::city("Maputo"));
  const data::CountryInfo& mz = data::country("MZ");
  const auto serving = net.snapshot().serving_satellite(maputo, 25.0);
  ASSERT_TRUE(serving.has_value());
  const auto before = net.router().route_from_satellite(*serving, maputo, mz);
  ASSERT_TRUE(before.has_value());
  // Twice, so the second answer is a memo hit that a stale key would keep.
  ASSERT_EQ(net.router().route_from_satellite(*serving, maputo, mz)->gateway,
            before->gateway);

  net.set_gateway_failed(before->gateway, true);
  const auto during = net.router().route_from_satellite(*serving, maputo, mz);
  ASSERT_TRUE(during.has_value());
  EXPECT_NE(during->gateway, before->gateway);
  expect_same_route(during, fresh_route(net, *serving, maputo, mz), "gateway failed");

  net.set_gateway_failed(before->gateway, false);
  expect_same_route(net.router().route_from_satellite(*serving, maputo, mz), before,
                    "gateway recovered");
}

TEST(RouteMemo, FailureVersionBumpsOnlyOnAFlip) {
  lsn::GroundSegment ground;
  EXPECT_EQ(ground.failure_version(), 0u);
  ground.set_gateway_failed(0, false);  // already up: no flip
  EXPECT_EQ(ground.failure_version(), 0u);
  ground.set_gateway_failed(0, true);
  ground.set_gateway_failed(0, true);
  EXPECT_EQ(ground.failure_version(), 1u);
  ground.set_gateway_failed(0, false);
  EXPECT_EQ(ground.failure_version(), 2u);
}

TEST(RouteMemo, GroundTierUsesTheNearestSiteOfThePop) {
  // Tier (iii) through a router with ground-only fetches, against the same
  // fetch priced by hand from nearest_site on an identical deployment.
  const lsn::StarlinkNetwork net;
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), cdn::DeploymentConfig{});
  cdn::CdnDeployment reference(data::cdn_sites(), cdn::DeploymentConfig{});
  space::SpaceCdnRouter router(net, fleet, ground);
  router.set_ground_only(true);
  const terrestrial::Backbone& backbone = net.ground().backbone();

  des::Rng rng(29);
  for (std::uint32_t q = 0; q < 60; ++q) {
    const geo::GeoPoint client = random_client(rng);
    const data::CountryInfo& country = random_country(rng);
    const auto serving = net.snapshot().serving_satellite(client, 25.0);
    if (!serving) continue;
    // Items repeat so some fetches hit the edge cache.
    const cdn::ContentItem item{q % 7, Megabytes{1.0}, data::Region::kEurope};
    const Milliseconds now{static_cast<double>(q)};

    des::Rng replay = rng;
    const auto got = router.fetch(client, country, item, rng, now);

    auto route = net.router().route_from_satellite(*serving, client, country);
    ASSERT_EQ(got.has_value(), route.has_value()) << "query " << q;
    if (!got) continue;
    (void)replay.lognormal_median(router.config().service_overhead_rtt.value(),
                                  router.config().service_overhead_sigma);
    const Milliseconds overhead = net.access().sample_idle_overhead(replay);
    const geo::GeoPoint pop = data::location(net.ground().pop(route->pop));
    const std::size_t site = reference.nearest_site(pop);
    route->pop_to_destination =
        backbone.one_way_latency(pop, reference.site_location(site));
    const cdn::ServeResult want = reference.serve(
        site, item, route->propagation_rtt() + overhead,
        backbone.rtt(reference.site_location(site), reference.origin_location()), now);

    EXPECT_EQ(got->tier, space::FetchTier::kGround) << "query " << q;
    EXPECT_EQ(got->ground_cache_hit, want.hit) << "query " << q;
    EXPECT_EQ(got->rtt.value(), want.first_byte.value()) << "query " << q;
    EXPECT_TRUE(ground.cache(site).contains(item.id)) << "query " << q;
  }
}

TEST(RouteMemo, ConcurrentQueriesMatchSerial) {
  // One shared network whose memos start empty, so threads race on misses
  // and first-writer-wins inserts; a second network answers serially.
  const lsn::StarlinkNetwork shared;
  const lsn::StarlinkNetwork serial;
  des::Rng rng(31);
  struct Query {
    std::uint32_t serving = 0;
    geo::GeoPoint client;
    const data::CountryInfo* country = nullptr;
  };
  std::vector<Query> queries(400);
  for (auto& q : queries) {
    // Few distinct serving satellites: many threads contend on each key.
    q.serving = static_cast<std::uint32_t>(rng.uniform_int(0, 15) * 97);
    q.client = random_client(rng);
    q.country = &random_country(rng);
  }

  std::vector<std::optional<lsn::RouteBreakdown>> routes(queries.size());
  std::vector<std::shared_ptr<const std::vector<net::HopDistance>>> rings(queries.size());
  ThreadPool pool(4);
  pool.parallel_for(queries.size(), [&](std::size_t i) {
    const Query& q = queries[i];
    routes[i] = shared.router().route_from_satellite(q.serving, q.client, *q.country);
    rings[i] = shared.isl().within_hops(q.serving, 10);
  });

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const std::string where = "query " + std::to_string(i);
    expect_same_route(
        routes[i], serial.router().route_from_satellite(q.serving, q.client, *q.country),
        where);
    expect_same_ring(*rings[i], *serial.isl().within_hops(q.serving, 10), where);
  }
}

}  // namespace
}  // namespace spacecdn
