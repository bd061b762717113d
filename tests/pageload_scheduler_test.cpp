// Tests for the DES page-load simulator, including cross-validation against
// the analytic NetMet model (measurement/web.hpp) behind figures 4 and 5.
#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "des/stats.hpp"
#include "lsn/starlink.hpp"
#include "measurement/pageload.hpp"
#include "measurement/web.hpp"
#include "sim/world.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

measurement::PathModel fixed_path(double rtt_ms, double mbps) {
  measurement::PathModel path;
  path.bandwidth = Mbps{mbps};
  path.sample_rtt = [rtt_ms](des::Rng&) { return Milliseconds{rtt_ms}; };
  return path;
}

TEST(PageLoad, FetchesEveryCriticalObject) {
  const measurement::PageLoadSimulator sim;
  des::Rng rng(1);
  const auto page = measurement::tranco_top_pages()[0];
  const auto result = sim.load(page, fixed_path(30.0, 100.0), rng);
  EXPECT_EQ(result.objects_fetched, page.critical_objects);
  EXPECT_GT(result.page_load_time.value(), 0.0);
  EXPECT_GT(result.first_contentful_paint.value(), result.page_load_time.value());
}

TEST(PageLoad, LowerBoundFromSetupAndTransmission) {
  const measurement::PageLoadSimulator sim;
  des::Rng rng(2);
  measurement::PageProfile page;
  page.name = "tiny";
  page.html = Megabytes{0.1};
  page.critical_objects = 4;
  page.critical_total = Megabytes{0.4};
  page.request_rounds = 1;
  const double rtt = 40.0;
  const auto result = sim.load(page, fixed_path(rtt, 100.0), rng);
  // At minimum: DNS (>= rtt) + connect + TLS + request + html + bodies.
  const double transmission_ms = (0.5 * 8.0) / 100.0 * 1000.0;  // all bytes
  EXPECT_GT(result.page_load_time.value(), 4 * rtt + transmission_ms);
}

TEST(PageLoad, SlowerPathSlowerLoad) {
  const measurement::PageLoadSimulator sim;
  des::Rng rng(3);
  const auto page = measurement::tranco_top_pages()[1];
  const auto fast = sim.load(page, fixed_path(15.0, 150.0), rng);
  const auto slow = sim.load(page, fixed_path(90.0, 150.0), rng);
  EXPECT_LT(fast.page_load_time.value(), slow.page_load_time.value());
}

TEST(PageLoad, BandwidthBoundWhenFat) {
  const measurement::PageLoadSimulator sim;
  des::Rng rng(4);
  measurement::PageProfile page;
  page.name = "heavy";
  page.html = Megabytes{0.2};
  page.critical_objects = 10;
  page.critical_total = Megabytes{20.0};
  page.request_rounds = 1;
  const auto narrow = sim.load(page, fixed_path(20.0, 20.0), rng);
  const auto wide = sim.load(page, fixed_path(20.0, 200.0), rng);
  // 20 MB at 20 Mbps is ~8 s of pure transmission; bandwidth dominates.
  EXPECT_GT(narrow.page_load_time.value(), 8000.0);
  EXPECT_LT(wide.page_load_time.value(), narrow.page_load_time.value() / 3.0);
}

TEST(PageLoad, MoreConnectionsNeverSlower) {
  des::Rng rng_a(5), rng_b(5);
  measurement::PageLoadConfig one_cfg;
  one_cfg.parallel_connections = 1;
  measurement::PageLoadConfig six_cfg;
  six_cfg.parallel_connections = 6;
  const measurement::PageLoadSimulator one(one_cfg), six(six_cfg);
  const auto page = measurement::tranco_top_pages()[2];
  const auto serial = one.load(page, fixed_path(50.0, 500.0), rng_a);
  const auto parallel = six.load(page, fixed_path(50.0, 500.0), rng_b);
  // With many small objects and a high-RTT path, pipelining across
  // connections hides request round trips.
  EXPECT_LT(parallel.page_load_time.value(), serial.page_load_time.value());
}

TEST(PageLoad, AgreesWithAnalyticModelOnDirection) {
  // Cross-validation: both models must rank Starlink vs terrestrial the
  // same way for the same page and city.
  const lsn::StarlinkNetwork& network = sim::shared_world().network();
  const auto& country = data::country("DE");
  const auto& city = data::city("Frankfurt");
  const auto terr = measurement::terrestrial_path(country, city);
  const auto star = measurement::starlink_path(network, country, city);
  ASSERT_TRUE(terr.sample_rtt && star.sample_rtt);

  const measurement::PageLoadSimulator des_sim;
  const measurement::NetMetProbe analytic;
  des::Rng rng(6);
  const auto page = measurement::tranco_top_pages()[4];

  des::SampleSet des_terr, des_star, ana_terr, ana_star;
  for (int i = 0; i < 30; ++i) {
    des_terr.add(des_sim.load(page, terr, rng).first_contentful_paint.value());
    des_star.add(des_sim.load(page, star, rng).first_contentful_paint.value());
    ana_terr.add(analytic.fetch(page, terr, rng).first_contentful_paint.value());
    ana_star.add(analytic.fetch(page, star, rng).first_contentful_paint.value());
  }
  EXPECT_GT(des_star.median(), des_terr.median());
  EXPECT_GT(ana_star.median(), ana_terr.median());
  // The two models agree within a factor of two on the medians.
  EXPECT_LT(std::abs(des_terr.median() - ana_terr.median()),
            std::max(des_terr.median(), ana_terr.median()));
}

}  // namespace
}  // namespace spacecdn
