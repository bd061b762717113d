// Tests for the deeper infrastructure modules: processor-sharing flows,
// hierarchical CDN, cell capacity, synthetic traceroutes, and the CLI
// parser.
#include <gtest/gtest.h>

#include <cmath>

#include "cdn/hierarchy.hpp"
#include "data/datasets.hpp"
#include "geo/distance.hpp"
#include "lsn/cell_capacity.hpp"
#include "measurement/traceroute.hpp"
#include "net/flow.hpp"
#include "sim/world.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

// -------------------------------------------------------------------- flows

TEST(SharedLink, SingleFlowRunsAtLineRate) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{80.0});  // 10 MB/s
  std::vector<net::FlowRecord> done;
  (void)link.start_flow(Megabytes{10.0},
                        [&](const net::FlowRecord& r) { done.push_back(r); });
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].duration().value(), 1000.0, 1e-6);
  EXPECT_NEAR(done[0].goodput().value(), 80.0, 1e-6);
}

TEST(SharedLink, TwoEqualFlowsShareFairly) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{80.0});
  std::vector<net::FlowRecord> done;
  const auto record = [&](const net::FlowRecord& r) { done.push_back(r); };
  (void)link.start_flow(Megabytes{10.0}, record);
  (void)link.start_flow(Megabytes{10.0}, record);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Both halve the rate: 2 s each instead of 1 s.
  EXPECT_NEAR(done[0].duration().value(), 2000.0, 1.0);
  EXPECT_NEAR(done[1].duration().value(), 2000.0, 1.0);
}

TEST(SharedLink, ShortFlowDelaysLongFlowExactly) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{80.0});  // 10 MB/s
  std::vector<net::FlowRecord> done;
  const auto record = [&](const net::FlowRecord& r) { done.push_back(r); };
  // Long flow: 20 MB. Short flow of 5 MB arrives at t=0 too.
  (void)link.start_flow(Megabytes{20.0}, record);
  (void)link.start_flow(Megabytes{5.0}, record);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Short flow: shares 5 MB/s until done at t=1s.  Long flow: 5 MB by t=1s,
  // then 15 MB at full 10 MB/s -> finishes at 2.5 s.
  EXPECT_NEAR(done[0].duration().value(), 1000.0, 1.0);
  EXPECT_NEAR(done[1].duration().value(), 2500.0, 1.0);
}

TEST(SharedLink, LateArrivalSharesRemainder) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{80.0});
  std::vector<std::pair<net::FlowId, double>> finished;
  (void)link.start_flow(Megabytes{10.0}, [&](const net::FlowRecord& r) {
    finished.emplace_back(r.id, r.finished.value());
  });
  sim.schedule(Milliseconds{500.0}, [&] {
    (void)link.start_flow(Megabytes{10.0}, [&](const net::FlowRecord& r) {
      finished.emplace_back(r.id, r.finished.value());
    });
  });
  sim.run();
  ASSERT_EQ(finished.size(), 2u);
  // Flow 1 alone for 0.5 s (5 MB), then shares: remaining 5 MB at 5 MB/s ->
  // finishes at 1.5 s.  Flow 2: 5 MB by 1.5 s, then full rate -> 2.0 s.
  EXPECT_NEAR(finished[0].second, 1500.0, 1.0);
  EXPECT_NEAR(finished[1].second, 2000.0, 1.0);
}

TEST(SharedLink, CancelStopsCallbackAndFreesShare) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{80.0});
  int callbacks = 0;
  const auto id = link.start_flow(Megabytes{50.0},
                                  [&](const net::FlowRecord&) { ++callbacks; });
  std::vector<double> finish;
  (void)link.start_flow(Megabytes{10.0}, [&](const net::FlowRecord& r) {
    finish.push_back(r.finished.value());
  });
  sim.schedule(Milliseconds{100.0}, [&] { EXPECT_TRUE(link.cancel_flow(id)); });
  sim.run();
  EXPECT_EQ(callbacks, 0);
  ASSERT_EQ(finish.size(), 1u);
  // 0.1 s shared (0.5 MB) + 9.5 MB at full rate = 0.1 + 0.95 s.
  EXPECT_NEAR(finish[0], 1050.0, 1.0);
  EXPECT_FALSE(link.cancel_flow(id));
}

TEST(SharedLink, ZeroByteFlowCompletesImmediately) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{10.0});
  bool fired = false;
  (void)link.start_flow(Megabytes{0.0}, [&](const net::FlowRecord& r) {
    fired = true;
    EXPECT_DOUBLE_EQ(r.duration().value(), 0.0);
  });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SharedLink, ManyFlowsConserveWork) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{80.0});  // 10 MB/s
  double total_mb = 0.0;
  double last_finish = 0.0;
  des::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const double mb = rng.uniform(0.5, 5.0);
    total_mb += mb;
    (void)link.start_flow(Megabytes{mb}, [&](const net::FlowRecord& r) {
      last_finish = std::max(last_finish, r.finished.value());
    });
  }
  sim.run();
  EXPECT_EQ(link.completed_flows(), 50u);
  // Work conservation: the busy period ends exactly at total/capacity.
  EXPECT_NEAR(last_finish, total_mb / 10.0 * 1000.0, 1.0);
}

// ---------------------------------------------------------------- hierarchy

TEST(Hierarchy, ServesThroughTiersInOrder) {
  cdn::CdnHierarchy tree(data::cdn_sites(), {});
  const cdn::ContentItem obj{1, Megabytes{5.0}, data::Region::kEurope};
  const std::size_t edge = tree.nearest_edge(data::location(data::city("Berlin")));

  const auto first = tree.serve(edge, obj, Milliseconds{5.0}, Milliseconds{0.0});
  EXPECT_EQ(first.served_by, cdn::ServedBy::kOrigin);
  const auto second = tree.serve(edge, obj, Milliseconds{5.0}, Milliseconds{0.0});
  EXPECT_EQ(second.served_by, cdn::ServedBy::kEdge);
  EXPECT_LT(second.first_byte.value(), first.first_byte.value());
}

TEST(Hierarchy, SiblingEdgeHitsRegionalParent) {
  cdn::CdnHierarchy tree(data::cdn_sites(), {});
  const cdn::ContentItem obj{2, Megabytes{5.0}, data::Region::kEurope};
  const std::size_t berlin = tree.nearest_edge(data::location(data::city("Berlin")));
  const std::size_t madrid = tree.nearest_edge(data::location(data::city("Madrid")));
  ASSERT_NE(berlin, madrid);

  (void)tree.serve(berlin, obj, Milliseconds{5.0}, Milliseconds{0.0});
  const auto sibling = tree.serve(madrid, obj, Milliseconds{5.0}, Milliseconds{0.0});
  EXPECT_EQ(sibling.served_by, cdn::ServedBy::kRegional);
  EXPECT_EQ(tree.stats().regional_hits, 1u);
  EXPECT_EQ(tree.stats().origin_fetches, 1u);
}

TEST(Hierarchy, ParentsAreInTheSameRegion) {
  cdn::CdnHierarchy tree(data::cdn_sites(), {});
  for (const char* city : {"Nairobi", "Tokyo", "Denver", "Sao Paulo"}) {
    const std::size_t edge = tree.nearest_edge(data::location(data::city(city)));
    const auto& parent = tree.parent_of(edge);
    EXPECT_EQ(data::country(parent.country_code).region,
              data::country(tree.edge_site(edge).country_code).region)
        << city;
  }
}

TEST(Hierarchy, LatencyAccumulatesPerTier) {
  cdn::CdnHierarchy tree(data::cdn_sites(), {});
  const cdn::ContentItem obj{3, Megabytes{1.0}, data::Region::kAfrica};
  const std::size_t edge = tree.nearest_edge(data::location(data::city("Nairobi")));
  const auto miss = tree.serve(edge, obj, Milliseconds{10.0}, Milliseconds{0.0});
  // Origin in Ashburn: the miss pays two extra wide-area round trips.
  EXPECT_GT(miss.first_byte.value(), 100.0);
  const auto hit = tree.serve(edge, obj, Milliseconds{10.0}, Milliseconds{0.0});
  EXPECT_DOUBLE_EQ(hit.first_byte.value(), 10.0);
}

// ------------------------------------------------------------ cell capacity

TEST(CellCapacity, DiurnalCurvePeaksAtPeakHour) {
  const lsn::CellLoadModel model({});
  const double peak = model.active_fraction(20.5);
  EXPECT_NEAR(peak, model.config().peak_active_fraction, 1e-9);
  EXPECT_NEAR(model.active_fraction(8.5), model.config().trough_active_fraction, 1e-9);
  EXPECT_GT(model.active_fraction(18.0), model.active_fraction(10.0));
}

TEST(CellCapacity, EveningThroughputDips) {
  const lsn::CellLoadModel model({});
  const Mbps morning = model.expected_throughput(6.0);
  const Mbps evening = model.expected_throughput(20.5);
  EXPECT_LT(evening.value(), morning.value());
  EXPECT_GT(evening.value(), 1.0);
}

TEST(CellCapacity, LightCellIsTerminalCapped) {
  lsn::CellConfig cfg;
  cfg.subscribers = 5.0;
  const lsn::CellLoadModel model(cfg);
  EXPECT_DOUBLE_EQ(model.expected_throughput(20.5).value(),
                   cfg.terminal_cap.value());
  EXPECT_LT(model.utilization(20.5), 0.1);
}

TEST(CellCapacity, SamplesRespectTerminalCap) {
  const lsn::CellLoadModel model({});
  des::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const Mbps sample = model.sample_throughput(20.0, rng);
    EXPECT_LE(sample.value(), model.config().terminal_cap.value() + 1e-9);
    EXPECT_GE(sample.value(), 1.0);
  }
}

TEST(CellCapacity, RejectsBadConfig) {
  lsn::CellConfig cfg;
  cfg.peak_active_fraction = 0.1;
  cfg.trough_active_fraction = 0.2;  // trough > peak
  EXPECT_THROW(lsn::CellLoadModel{cfg}, ConfigError);
}

// --------------------------------------------------------------- traceroute

class TracerouteTest : public ::testing::Test {
 protected:
  static const lsn::StarlinkNetwork& network() {
    return sim::shared_world().network();
  }
};

TEST_F(TracerouteTest, StarlinkPathShowsCgnatThenPop) {
  const measurement::TracerouteSynthesizer synth(network());
  des::Rng rng(3);
  const auto trace = synth.starlink(data::city("Maputo"),
                                    data::location(data::city("Frankfurt")), rng);
  ASSERT_GE(trace.hops.size(), 4u);
  EXPECT_EQ(trace.hops[0].kind, measurement::HopKind::kCpe);
  EXPECT_EQ(trace.hops[1].kind, measurement::HopKind::kCgnat);
  EXPECT_EQ(trace.hops[2].kind, measurement::HopKind::kPopGateway);
  // The CGNAT hop already carries the full space-segment RTT (~130 ms).
  EXPECT_GT(trace.hops[1].rtt.value(), 90.0);
  // The PoP is labelled Frankfurt: the paper's "first public hop a continent
  // away".
  EXPECT_NE(trace.hops[2].label.find("Frankfurt"), std::string::npos);
  EXPECT_EQ(trace.hops.back().kind, measurement::HopKind::kDestination);
}

TEST_F(TracerouteTest, CumulativeRttsAreMonotoneAtKindBoundaries) {
  const measurement::TracerouteSynthesizer synth(network());
  des::Rng rng(4);
  const auto trace = synth.starlink(data::city("London"),
                                    data::location(data::city("Madrid")), rng);
  ASSERT_GE(trace.hops.size(), 3u);
  EXPECT_LT(trace.hops[0].rtt.value(), trace.hops[1].rtt.value());
  EXPECT_LE(trace.hops[1].rtt.value(), trace.hops.back().rtt.value());
}

TEST_F(TracerouteTest, TerrestrialPathHasNoCgnat) {
  const measurement::TracerouteSynthesizer synth(network());
  des::Rng rng(5);
  const auto trace = synth.terrestrial(data::city("Maputo"),
                                       data::location(data::city("Johannesburg")), rng);
  for (const auto& hop : trace.hops) {
    EXPECT_NE(hop.kind, measurement::HopKind::kCgnat);
    EXPECT_NE(hop.kind, measurement::HopKind::kPopGateway);
  }
  EXPECT_LT(trace.total_rtt().value(), 60.0);
}

TEST_F(TracerouteTest, PopInferenceUsesBorderRouterLabel) {
  const measurement::TracerouteSynthesizer synth(network());
  des::Rng rng(6);
  const auto trace = synth.starlink(data::city("Maputo"),
                                    data::location(data::city("Frankfurt")), rng);
  EXPECT_EQ(synth.infer_pop(trace, data::city("Maputo")), "frankfurt");
}

TEST_F(TracerouteTest, PopInferenceRttFallbackIsPlausible) {
  const measurement::TracerouteSynthesizer synth(network());
  des::Rng rng(7);
  auto trace = synth.starlink(data::city("Maputo"),
                              data::location(data::city("Frankfurt")), rng);
  // Strip the rDNS label (many border routers do not resolve); the RTT
  // fallback must still return a PoP whose distance is consistent with the
  // observed first-public-hop RTT, even if not the exact one.
  for (auto& hop : trace.hops) {
    if (hop.kind == measurement::HopKind::kPopGateway) hop.label = "10.20.30.40";
  }
  const std::string inferred = synth.infer_pop(trace, data::city("Maputo"));
  ASSERT_FALSE(inferred.empty());
  const auto& pop = data::pop(inferred);
  const double km = geo::great_circle_distance(data::location(data::city("Maputo")),
                                               data::location(pop))
                        .value();
  EXPECT_GT(km, 4000.0);  // an RTT of ~135 ms cannot come from a nearby PoP
}

// ---------------------------------------------------------------------- cli

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--count=5", "--name=alice", "--verbose", "input.txt"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get("count", 0L), 5L);
  EXPECT_EQ(args.get("name", std::string("none")), "alice");
  EXPECT_TRUE(args.get("verbose", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", 7L), 7L);
  EXPECT_DOUBLE_EQ(args.get("ratio", 0.5), 0.5);
  EXPECT_FALSE(args.get("flag", false));
  EXPECT_FALSE(args.has("anything"));
}

TEST(Cli, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe"};
  const CliArgs args(3, argv);
  EXPECT_THROW((void)args.get("n", 1L), ConfigError);
  EXPECT_THROW((void)args.get("b", false), ConfigError);
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  const CliArgs args(3, argv);
  (void)args.get("used", 0L);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, IntegerFlagsParseExactlyAndRejectFractions) {
  // Regression: get(long) used to route through strtod, silently truncating
  // "--seed=3.7" to 3 and rounding integers above 2^53.
  const char* argv[] = {"prog", "--seed=3.7", "--big=9007199254740993",
                        "--neg=-42", "--sci=1e3", "--empty="};
  const CliArgs args(6, argv);
  EXPECT_THROW((void)args.get("seed", 0L), ConfigError);
  EXPECT_EQ(args.get("big", 0L), 9007199254740993L);  // 2^53 + 1, exact
  EXPECT_EQ(args.get("neg", 0L), -42L);
  EXPECT_THROW((void)args.get("sci", 0L), ConfigError);
  EXPECT_THROW((void)args.get("empty", 0L), ConfigError);
  // The same values stay legal for the double overload.
  EXPECT_DOUBLE_EQ(args.get("seed", 0.0), 3.7);
  EXPECT_DOUBLE_EQ(args.get("sci", 0.0), 1000.0);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c"};
  const CliArgs args(4, argv);
  EXPECT_TRUE(args.get("a", false));
  EXPECT_FALSE(args.get("b", true));
  EXPECT_TRUE(args.get("c", false));
}

}  // namespace
}  // namespace spacecdn
