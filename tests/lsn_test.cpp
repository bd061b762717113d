// Unit tests for the LEO satellite network substrate: ISL fabric, ground
// segment, access model, bent-pipe routing, Starlink facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "data/datasets.hpp"
#include "des/stats.hpp"
#include "geo/distance.hpp"
#include "lsn/starlink.hpp"
#include "util/error.hpp"

namespace spacecdn::lsn {
namespace {

/// Shared Shell-1 network; built once for the whole binary (propagating
/// 1,584 satellites and building the ISL fabric per test would dominate
/// runtime).
const StarlinkNetwork& shell1() {
  static const StarlinkNetwork network{};
  return network;
}

TEST(IslNetwork, GraphMatchesConstellation) {
  const auto& net = shell1();
  EXPECT_EQ(net.isl().graph().node_count(), 1584u);
  // +grid: ~2 undirected links per satellite (4 terminals / 2), as directed
  // edges: ~4 per satellite.  Phase-nearest selection can add a few extra.
  EXPECT_GE(net.isl().graph().edge_count(), 2u * 1584u);
  EXPECT_LE(net.isl().graph().edge_count(), 6u * 1584u);
}

TEST(IslNetwork, LinkLatencyMatchesDistance) {
  const auto& net = shell1();
  const auto neighbors = net.constellation().grid_neighbors(0);
  for (std::uint32_t n : neighbors) {
    const double d = net.snapshot().isl_distance(0, n).value();
    const double expected =
        d / geo::kSpeedOfLightKmPerSec * 1000.0 + net.config().isl.per_hop_overhead.value();
    EXPECT_NEAR(net.isl().link_latency(0, n).value(), expected, 1e-9);
  }
  EXPECT_THROW((void)net.isl().link_latency(0, 800), ConfigError);
}

TEST(IslNetwork, FabricIsConnected) {
  const auto& net = shell1();
  const auto dist = net.isl().latencies_from(0);
  for (std::uint32_t s = 0; s < 1584; s += 97) {
    EXPECT_FALSE(std::isinf(dist[s].value())) << "satellite " << s << " unreachable";
  }
}

TEST(IslNetwork, PathLatencyTriangleInequality) {
  const auto& net = shell1();
  const Milliseconds direct = net.isl().path_latency(0, 100);
  const Milliseconds via =
      net.isl().path_latency(0, 50) + net.isl().path_latency(50, 100);
  EXPECT_LE(direct.value(), via.value() + 1e-9);
}

TEST(IslNetwork, WithinHopsGrowsMonotonically) {
  const auto& net = shell1();
  std::size_t prev = 0;
  for (std::uint32_t h = 0; h <= 5; ++h) {
    const auto nodes = net.isl().within_hops(42, h);
    EXPECT_GT(nodes->size(), prev);
    prev = nodes->size();
  }
  // 4 neighbours per satellite: 1 + 4 = 5 within one hop.
  EXPECT_EQ(net.isl().within_hops(42, 1)->size(), 5u);
}

TEST(IslNetwork, InterPlaneLinksStayWithinLaserReach) {
  // Regression for the +grid seam: naive same-slot pairing across the
  // plane 71 -> plane 0 wrap ignores the accumulated Walker phase offset
  // (F * 360 / T per plane) and produces "links" thousands of kilometres
  // beyond optical LoS.  Phase-nearest partner selection must keep every
  // inter-plane ISL within laser-terminal reach everywhere, seam included.
  constexpr double kMaxIslRangeKm = 5'400.0;  // optical LoS budget at 550 km
  const auto& net = shell1();
  const auto& shell = net.constellation();
  const std::uint32_t last_plane = shell.design().planes - 1;
  std::size_t inter_plane = 0, seam = 0;
  for (std::uint32_t sat = 0; sat < shell.size(); ++sat) {
    const auto a = shell.index_of(sat);
    for (const net::Edge& edge : net.isl().graph().neighbors(sat)) {
      const auto b = shell.index_of(edge.to);
      if (a.plane == b.plane) continue;
      ++inter_plane;
      const double km = net.snapshot().isl_distance(sat, edge.to).value();
      ASSERT_LE(km, kMaxIslRangeKm)
          << "ISL " << sat << " (plane " << a.plane << ") <-> " << edge.to
          << " (plane " << b.plane << ") spans " << km << " km";
      const auto lo = std::min(a.plane, b.plane);
      const auto hi = std::max(a.plane, b.plane);
      if (lo == 0 && hi == last_plane) ++seam;
    }
  }
  // Every satellite keeps both east and west terminals busy somewhere.
  EXPECT_GE(inter_plane, static_cast<std::size_t>(shell.size()));
  // The wrap-around seam itself carries links (and passed the bound above).
  EXPECT_GT(seam, 0u);
}

TEST(GroundSegment, DefaultsFromDataset) {
  const GroundSegment ground;
  EXPECT_EQ(ground.pop_count(), 22u);
  EXPECT_GE(ground.gateway_count(), 30u);
  EXPECT_EQ(ground.pop(ground.pop_index("tokyo")).country_code, "JP");
  EXPECT_THROW((void)ground.pop_index("missing"), NotFoundError);
}

TEST(GroundSegment, NearestPop) {
  const GroundSegment ground;
  const std::size_t pop = ground.nearest_pop(data::location(data::city("Munich")));
  EXPECT_EQ(ground.pop(pop).key, "frankfurt");
}

TEST(GroundSegment, AssignedPopFollowsCountryTable) {
  const GroundSegment ground;
  const auto& mz = data::country("MZ");
  const std::size_t pop =
      ground.assigned_pop(mz, data::location(data::city("Maputo")));
  EXPECT_EQ(ground.pop(pop).key, "frankfurt");
  // US has no fixed assignment: nearest PoP wins.
  const auto& us = data::country("US");
  const std::size_t seattle_pop =
      ground.assigned_pop(us, data::location(data::city("Seattle")));
  EXPECT_EQ(ground.pop(seattle_pop).key, "seattle");
}

TEST(GroundSegment, GatewayToPopHaul) {
  const GroundSegment ground;
  // Usingen DE gateway to Frankfurt PoP: tens of km, well under 1 ms.
  std::size_t usingen = 0;
  for (std::size_t g = 0; g < ground.gateway_count(); ++g) {
    if (ground.gateway(g).name == "Usingen DE") usingen = g;
  }
  EXPECT_LT(ground.gateway_to_pop(usingen, ground.pop_index("frankfurt")).value(), 1.0);
}

TEST(Access, IdleOverheadMedianCalibrated) {
  const StarlinkAccess access;
  des::Rng rng(1);
  des::SampleSet s;
  for (int i = 0; i < 20000; ++i) s.add(access.sample_idle_overhead(rng).value());
  EXPECT_NEAR(s.median(), access.config().median_overhead_rtt.value(), 1.0);
}

TEST(Access, LoadedOverheadShowsBufferbloat) {
  // Paper section 3.2: >200 ms during active downloads.
  const StarlinkAccess access;
  des::Rng rng(2);
  des::SampleSet s;
  for (int i = 0; i < 5000; ++i) s.add(access.sample_loaded_overhead(0.95, rng).value());
  EXPECT_GT(s.median(), 180.0);
}

TEST(BentPipe, LocalPopIsFast) {
  // Frankfurt client, Frankfurt PoP: the best case (~30 ms median RTT).
  const auto& net = shell1();
  const auto route = net.router().route_to_pop(
      data::location(data::city("Frankfurt")), data::country("DE"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(net.ground().pop(route->pop).key, "frankfurt");
  EXPECT_LT(net.baseline_rtt(*route).value(), 45.0);
  EXPECT_EQ(route->isl_hops, 0u);
}

TEST(BentPipe, MozambiqueRidesIslsToFrankfurt) {
  // The paper's flagship case: Maputo -> Frankfurt PoP, ~9,000 km away,
  // median minRTT ~139 ms (Table 1).
  const auto& net = shell1();
  const auto route = net.router().route_to_pop(
      data::location(data::city("Maputo")), data::country("MZ"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(net.ground().pop(route->pop).key, "frankfurt");
  EXPECT_GT(route->isl_hops, 3u);
  const double rtt = net.baseline_rtt(*route).value();
  EXPECT_GT(rtt, 100.0);
  EXPECT_LT(rtt, 190.0);
}

TEST(BentPipe, NoCoverageAtHighLatitude) {
  const auto& net = shell1();
  const auto route =
      net.router().route_to_pop({89.0, 0.0, 0.0}, data::country("US"));
  EXPECT_FALSE(route.has_value());
}

TEST(BentPipe, BreakdownComponentsSumUp) {
  const auto& net = shell1();
  const auto route = net.router().route(data::location(data::city("Madrid")),
                                        data::country("ES"),
                                        data::location(data::city("Lisbon")));
  ASSERT_TRUE(route.has_value());
  const double one_way = route->uplink.value() + route->isl.value() +
                         route->downlink.value() + route->gateway_haul.value() +
                         route->pop_to_destination.value();
  EXPECT_NEAR(route->one_way().value(), one_way, 1e-9);
  EXPECT_NEAR(route->propagation_rtt().value(), 2.0 * one_way, 1e-9);
}

TEST(BentPipe, DestinationLegUsesPopNotClient) {
  // Two destinations equidistant from the client but not from the PoP must
  // differ: the PoP is the egress point.
  const auto& net = shell1();
  const geo::GeoPoint maputo = data::location(data::city("Maputo"));
  const auto to_jnb = net.router().route(maputo, data::country("MZ"),
                                         data::location(data::city("Johannesburg")));
  const auto to_fra = net.router().route(maputo, data::country("MZ"),
                                         data::location(data::city("Frankfurt")));
  ASSERT_TRUE(to_jnb && to_fra);
  // Johannesburg is 450 km from Maputo but ~8,700 km from the Frankfurt PoP.
  EXPECT_GT(to_jnb->pop_to_destination.value(), to_fra->pop_to_destination.value());
}

TEST(Starlink, SetTimeRebuildsTopology) {
  StarlinkNetwork net;
  const auto before = net.route(data::location(data::city("London")),
                                data::country("GB"),
                                data::location(data::city("London")));
  net.set_time(Milliseconds::from_minutes(5.0));
  EXPECT_DOUBLE_EQ(net.time().value(), 300000.0);
  const auto after = net.route(data::location(data::city("London")),
                               data::country("GB"),
                               data::location(data::city("London")));
  ASSERT_TRUE(before && after);
  // Satellites moved ~1,500 km; the serving satellite almost surely changed.
  EXPECT_NE(before->serving_satellite, after->serving_satellite);
}

TEST(Starlink, SampledRttsCenterOnBaseline) {
  const auto& net = shell1();
  const auto route = net.router().route_to_pop(
      data::location(data::city("Tokyo")), data::country("JP"));
  ASSERT_TRUE(route.has_value());
  des::Rng rng(3);
  des::SampleSet s;
  for (int i = 0; i < 10000; ++i) s.add(net.sample_idle_rtt(*route, rng).value());
  EXPECT_NEAR(s.median(), net.baseline_rtt(*route).value(), 3.0);
}

TEST(Starlink, LoadedRttShowsBloat) {
  const auto& net = shell1();
  const auto route = net.router().route_to_pop(
      data::location(data::city("Sydney")), data::country("AU"));
  ASSERT_TRUE(route.has_value());
  des::Rng rng(4);
  des::SampleSet s;
  for (int i = 0; i < 3000; ++i) s.add(net.sample_loaded_rtt(*route, 0.95, rng).value());
  EXPECT_GT(s.median(), 200.0);
}

TEST(Starlink, TestShellWorksEndToEnd) {
  // A reduced shell still routes (coverage is sparse, so pick mid-latitude).
  StarlinkConfig cfg;
  cfg.shell = orbit::test_shell();
  StarlinkNetwork net(cfg);
  EXPECT_EQ(net.constellation().size(), 64u);
}

}  // namespace
}  // namespace spacecdn::lsn
