// Differential tests for the per-snapshot routing memos: BentPipeRouter's
// (serving satellite, PoP) legs, IslNetwork's BFS hop rings, and
// SpaceCdnRouter's ground site per PoP and serving geometry per client --
// plus the serving rule itself: fetch_resilient's fault-aware choice against
// a brute-force elevation ranking.
// Each memoised answer must equal the from-scratch computation bit for bit,
// across gateway flips, satellite fail/recover and ephemeris advances, and
// under concurrent queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdn/deployment.hpp"
#include "data/datasets.hpp"
#include "des/random.hpp"
#include "geo/visibility.hpp"
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

void expect_same_fetch(const std::optional<space::FetchResult>& got,
                       const std::optional<space::FetchResult>& want,
                       const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->serving_satellite, want->serving_satellite) << where;
  EXPECT_EQ(got->tier, want->tier) << where;
  EXPECT_EQ(got->rtt.value(), want->rtt.value()) << where;
  EXPECT_EQ(got->isl_path, want->isl_path) << where;
}

/// A fleet and ground CDN per router, so the long-lived and the fresh router
/// see identical caches while each runs the same fetches.
struct CdnState {
  space::SatelliteFleet fleet;
  cdn::CdnDeployment ground;
  explicit CdnState(std::uint32_t satellites)
      : fleet(satellites, space::FleetConfig{Megabytes{20.0}}),
        ground(data::cdn_sites(), cdn::DeploymentConfig{}) {}
};

TEST(RouteMemo, ClientGeometryMatchesFreshRouter) {
  // A long-lived router's per-client geometry memo against a router built
  // fresh for every query, for fetch and fetch_resilient.  Clients repeat so
  // the memo is hit; between repeats the ephemeris advances, the serving
  // satellite fails or recovers, or a serving filter vetoes it.  A 1 ms
  // hedge delay makes every served resilient fetch hedge, so the chooser is
  // also asked with an `exclude`.
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    const char* preset = kPresets[p];
    lsn::StarlinkNetwork net(lsn::starlink_preset(preset));
    const std::uint32_t satellites = net.constellation().size();
    CdnState kept_state(satellites);
    CdnState fresh_state(satellites);
    space::RouterConfig config;
    config.record_paths = true;
    config.resilience.hedge_delay = Milliseconds{1.0};
    space::SpaceCdnRouter kept(net, kept_state.fleet, kept_state.ground, config);

    des::Rng rng(des::mix_seed(37, p));
    std::array<geo::GeoPoint, 4> clients{};
    for (auto& client : clients) client = random_client(rng);
    // Equal under GeoPoint's operator==, yet two memo keys.
    clients[2] = {0.0, clients[2].lon_deg, 0.0};
    clients[3] = {-0.0, clients[2].lon_deg, 0.0};
    const data::CountryInfo& country = random_country(rng);
    std::vector<cdn::ContentItem> items;
    for (cdn::ContentId id = 0; id < 6; ++id) {
      items.push_back({id, Megabytes{1.0}, data::Region::kEurope});
    }
    // Seed replicas near the clients so tiers (i) and (ii) serve too.
    for (const auto& client : clients) {
      if (const auto sat = net.snapshot().serving_satellite(client, 25.0)) {
        for (CdnState* state : {&kept_state, &fresh_state}) {
          (void)state->fleet.cache(*sat).insert(items[0], Milliseconds{0.0});
          (void)state->fleet.cache((*sat + 1) % satellites)
              .insert(items[1], Milliseconds{0.0});
        }
      }
    }

    std::vector<std::uint32_t> offline;
    std::optional<std::uint32_t> vetoed;
    for (int q = 0; q < 40; ++q) {
      const std::string where = std::string(preset) + " query " + std::to_string(q);
      const geo::GeoPoint& client = clients[rng.uniform_int(0, clients.size() - 1)];
      const cdn::ContentItem& item = items[rng.uniform_int(0, items.size() - 1)];
      const Milliseconds now{static_cast<double>(q)};

      space::SpaceCdnRouter fresh(net, fresh_state.fleet, fresh_state.ground, config);
      if (vetoed) {
        const auto filter = [v = *vetoed](std::uint32_t sat) { return sat != v; };
        kept.set_serving_filter(filter);
        fresh.set_serving_filter(filter);
      } else {
        kept.set_serving_filter({});
      }
      des::Rng kept_rng = rng;
      des::Rng fresh_rng = rng;
      expect_same_fetch(kept.fetch(client, country, item, kept_rng, now),
                        fresh.fetch(client, country, item, fresh_rng, now),
                        where + " fetch");
      const auto got = kept.fetch_resilient(client, country, item, kept_rng, now);
      const auto want = fresh.fetch_resilient(client, country, item, fresh_rng, now);
      ASSERT_EQ(got.success, want.success) << where;
      EXPECT_EQ(got.hedged, want.hedged) << where;
      EXPECT_EQ(got.hedge_won, want.hedge_won) << where;
      EXPECT_EQ(got.total_latency.value(), want.total_latency.value()) << where;
      expect_same_fetch(got.served, want.served, where + " resilient");
      rng = kept_rng;

      // Change what the memo must not hide, around the satellite serving now.
      const std::optional<std::uint32_t> serving =
          got.served ? std::optional{got.served->serving_satellite} : std::nullopt;
      switch (rng.uniform_int(0, 3)) {
        case 0:
          net.set_time(net.time() + Milliseconds::from_seconds(30.0));
          break;
        case 1:
          if (serving) {
            net.fail_satellite(*serving);
            kept_state.fleet.set_online(*serving, false);
            fresh_state.fleet.set_online(*serving, false);
            offline.push_back(*serving);
          }
          break;
        case 2:
          if (!offline.empty()) {
            net.recover_satellite(offline.back());
            kept_state.fleet.set_online(offline.back(), true);
            fresh_state.fleet.set_online(offline.back(), true);
            offline.pop_back();
          }
          break;
        default:
          vetoed = vetoed ? std::nullopt : serving;
          break;
      }
    }
  }
}

/// The serving rule by brute force: every satellite visible_satellites_scan
/// finds, ranked by the scalar elevation (highest first, ties to the lowest
/// id); the first that is online, not `exclude` and not vetoed, else the
/// first that is online and not `exclude`.
std::optional<std::uint32_t> reference_choice(const lsn::StarlinkNetwork& net,
                                              const space::SatelliteFleet& fleet,
                                              const geo::GeoPoint& client,
                                              const std::vector<std::uint32_t>& vetoed,
                                              std::optional<std::uint32_t> exclude) {
  const auto& snapshot = net.snapshot();
  std::vector<std::pair<double, std::uint32_t>> ranked;
  for (const std::uint32_t sat : snapshot.visible_satellites_scan(client, 25.0)) {
    ranked.emplace_back(geo::elevation_angle_deg(client, snapshot.position(sat)), sat);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::optional<std::uint32_t> fallback;
  for (const auto& [elevation, sat] : ranked) {
    if (!fleet.online(sat) || sat == exclude) continue;
    if (std::find(vetoed.begin(), vetoed.end(), sat) == vetoed.end()) return sat;
    if (!fallback) fallback = sat;
  }
  return fallback;
}

TEST(ServingRule, FaultAwareChooserMatchesElevationRule) {
  // fetch_resilient's serving satellite against fetch's (nothing down) and
  // against the brute-force elevation rule (seeded offline sets, a vetoing
  // serving filter, and the hedge's `exclude`), on every preset at three
  // snapshot times.  The object is cached on every visible satellite but
  // the primary choice, with no ISL lookup: the primary serves from the
  // ground and a 0.01 ms hedge from a satellite cache, so a won hedge
  // reveals the second choice.
  std::size_t total_hedges_won = 0;
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    const char* preset = kPresets[p];
    lsn::StarlinkNetwork net(lsn::starlink_preset(preset));
    CdnState state(net.constellation().size());
    space::RouterConfig config;
    config.admit_on_fetch = false;
    config.max_isl_hops = 0;
    config.resilience.max_attempts = 1;
    space::SpaceCdnRouter router(net, state.fleet, state.ground, config);
    des::Rng rng(des::mix_seed(41, p));
    std::size_t compared = 0;
    std::size_t hedges_won = 0;
    cdn::ContentId next_id = 0;
    for (const double t_s : {0.0, 15.0, 137.0}) {
      net.set_time(Milliseconds::from_seconds(t_s));
      for (int q = 0; q < 40; ++q) {
        const std::string where = std::string(preset) + " t=" + std::to_string(t_s) +
                                  "s point " + std::to_string(q);
        const geo::GeoPoint client = random_client(rng);
        const data::CountryInfo& country = random_country(rng);
        const cdn::ContentItem item{next_id++, Megabytes{1.0}, data::Region::kEurope};
        const auto top = net.snapshot().serving_satellite(client, 25.0);

        // Nothing down, no filter, no hedge: the same satellite as fetch.
        router.set_serving_filter({});
        router.set_hedge_delay(Milliseconds{0.0});
        des::Rng fetch_rng = rng;
        des::Rng resilient_rng = rng;
        const Milliseconds now{0.0};
        const auto fetched = router.fetch(client, country, item, fetch_rng, now);
        const auto resilient =
            router.fetch_resilient(client, country, item, resilient_rng, now);
        ASSERT_EQ(resilient.success, fetched.has_value()) << where;
        if (fetched) {
          ++compared;
          EXPECT_EQ(fetched->serving_satellite, *top) << where;
          EXPECT_EQ(resilient.served->serving_satellite, fetched->serving_satellite)
              << where;
        }
        if (!top) continue;

        // Take some of the highest-ranked satellites offline and veto others.
        const auto visible = net.snapshot().visible_satellites_scan(client, 25.0);
        std::vector<std::uint32_t> offline;
        std::vector<std::uint32_t> vetoed;
        const bool veto_all = rng.chance(0.15);
        for (const std::uint32_t sat : visible) {
          if (rng.chance(sat == *top ? 0.6 : 0.3)) {
            offline.push_back(sat);
            state.fleet.set_online(sat, false);
          } else if (veto_all || rng.chance(0.3)) {
            vetoed.push_back(sat);
          }
        }
        router.set_serving_filter([&vetoed](std::uint32_t sat) {
          return std::find(vetoed.begin(), vetoed.end(), sat) == vetoed.end();
        });
        router.set_hedge_delay(Milliseconds{0.01});
        const auto primary =
            reference_choice(net, state.fleet, client, vetoed, std::nullopt);
        const auto second =
            primary ? reference_choice(net, state.fleet, client, vetoed, *primary)
                    : std::nullopt;
        for (const std::uint32_t sat : visible) {
          if (sat != primary) (void)state.fleet.cache(sat).insert(item, now);
        }
        const auto got = router.fetch_resilient(client, country, item, rng, now);
        if (!primary) {
          EXPECT_FALSE(got.success) << where;
        }
        if (got.success) {
          ASSERT_TRUE(primary.has_value()) << where;
          const std::uint32_t want = got.hedge_won ? *second : *primary;
          EXPECT_EQ(got.served->serving_satellite, want) << where;
          if (got.hedge_won) ++hedges_won;
        }
        for (const std::uint32_t sat : offline) state.fleet.set_online(sat, true);
      }
    }
    EXPECT_GT(compared, 0u) << preset;
    EXPECT_GT(hedges_won, 0u) << preset;
    total_hedges_won += hedges_won;
  }
  EXPECT_GE(total_hedges_won, 300u);
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
