// Unit tests for the measurement module: AIM campaign, analysis, NetMet web
// model.  These validate the paper's section-3 aggregations on synthetic
// records with known structure, then check the campaign reproduces the
// published shapes.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "data/datasets.hpp"
#include "measurement/aim.hpp"
#include "measurement/analysis.hpp"
#include "measurement/web.hpp"
#include "sim/world.hpp"
#include "util/error.hpp"

namespace spacecdn::measurement {
namespace {

const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

SpeedTestRecord record(const char* country, const char* city, IspType isp,
                       const char* site, double rtt, double distance_km = 100.0) {
  SpeedTestRecord r;
  r.country_code = country;
  r.city = city;
  r.isp = isp;
  r.cdn_site = site;
  r.idle_rtt = Milliseconds{rtt};
  r.loaded_rtt = Milliseconds{rtt + 100.0};
  r.distance = Kilometers{distance_km};
  return r;
}

TEST(Analysis, OptimalSiteIsLowestMedian) {
  std::vector<SpeedTestRecord> records;
  // Site A: median 30; site B: median 10.
  for (double rtt : {28.0, 30.0, 32.0}) {
    records.push_back(record("XX", "TestCity", IspType::kTerrestrial, "AAA", rtt, 500));
  }
  for (double rtt : {9.0, 10.0, 11.0}) {
    records.push_back(record("XX", "TestCity", IspType::kTerrestrial, "BBB", rtt, 50));
  }
  const AimAnalysis analysis({records.begin(), records.end()});
  const auto opt = analysis.optimal_site("TestCity", IspType::kTerrestrial);
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(opt->site, "BBB");
  EXPECT_DOUBLE_EQ(opt->median_idle_rtt.value(), 10.0);
  EXPECT_DOUBLE_EQ(opt->distance.value(), 50.0);
}

TEST(Analysis, SiteStatsSortedByMedian) {
  std::vector<SpeedTestRecord> records{
      record("XX", "C", IspType::kStarlink, "AAA", 50.0),
      record("XX", "C", IspType::kStarlink, "BBB", 20.0),
      record("XX", "C", IspType::kStarlink, "CCC", 35.0),
  };
  const AimAnalysis analysis(std::move(records));
  const auto stats = analysis.site_stats("C", IspType::kStarlink);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].site, "BBB");
  EXPECT_EQ(stats[2].site, "AAA");
}

TEST(Analysis, CountryRowAggregatesCities) {
  std::vector<SpeedTestRecord> records{
      record("XX", "C1", IspType::kTerrestrial, "AAA", 10.0, 10.0),
      record("XX", "C2", IspType::kTerrestrial, "AAA", 20.0, 30.0),
      record("XX", "C1", IspType::kStarlink, "BBB", 110.0, 1000.0),
      record("XX", "C2", IspType::kStarlink, "BBB", 130.0, 3000.0),
  };
  const AimAnalysis analysis(std::move(records));
  const auto row = analysis.country_row("XX");
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->terrestrial_distance_km, 20.0);   // mean(10, 30)
  EXPECT_DOUBLE_EQ(row->terrestrial_min_rtt_ms, 15.0);    // median(10, 20)
  EXPECT_DOUBLE_EQ(row->starlink_distance_km, 2000.0);
  EXPECT_DOUBLE_EQ(row->starlink_min_rtt_ms, 120.0);
  EXPECT_DOUBLE_EQ(*analysis.median_delta_ms("XX"), 105.0);
}

TEST(Analysis, MissingIspYieldsNoRow) {
  std::vector<SpeedTestRecord> records{
      record("XX", "C1", IspType::kTerrestrial, "AAA", 10.0)};
  const AimAnalysis analysis(std::move(records));
  EXPECT_FALSE(analysis.country_row("XX").has_value());
  EXPECT_FALSE(analysis.country_row("YY").has_value());
}

TEST(Analysis, OptimalIdleRttsFilterToOptimalSite) {
  std::vector<SpeedTestRecord> records{
      record("XX", "C", IspType::kStarlink, "FAR", 100.0),
      record("XX", "C", IspType::kStarlink, "NEAR", 20.0),
      record("XX", "C", IspType::kStarlink, "NEAR", 22.0),
  };
  const AimAnalysis analysis(std::move(records));
  const auto rtts = analysis.optimal_idle_rtts(IspType::kStarlink);
  EXPECT_EQ(rtts.size(), 2u);  // only NEAR samples
  EXPECT_LT(rtts.max(), 30.0);
}

TEST(Campaign, ProducesBothIspsForCoveredCountry) {
  AimConfig cfg;
  cfg.tests_per_city = 5;
  AimCampaign campaign(shell1(), cfg);
  const auto records = campaign.run_country(data::country("DE"));
  std::uint32_t star = 0, terr = 0;
  for (const auto& r : records) {
    EXPECT_EQ(r.country_code, "DE");
    (r.isp == IspType::kStarlink ? star : terr) += 1;
    EXPECT_GT(r.idle_rtt.value(), 0.0);
    EXPECT_GE(r.loaded_rtt.value(), r.idle_rtt.value());
  }
  // 3 German cities x 5 tests per ISP.
  EXPECT_EQ(star, 15u);
  EXPECT_EQ(terr, 15u);
}

TEST(Campaign, ReproducesTable1Shape) {
  AimConfig cfg;
  cfg.tests_per_city = 15;
  AimCampaign campaign(shell1(), cfg);
  std::vector<SpeedTestRecord> records;
  for (const char* cc : {"MZ", "ES"}) {
    auto r = campaign.run_country(data::country(cc));
    records.insert(records.end(), r.begin(), r.end());
  }
  const AimAnalysis analysis(std::move(records));

  // Mozambique: Starlink ~139 ms over ~8,800 km; terrestrial ~7 ms local.
  const auto mz = analysis.country_row("MZ");
  ASSERT_TRUE(mz.has_value());
  EXPECT_GT(mz->starlink_min_rtt_ms, 100.0);
  EXPECT_LT(mz->starlink_min_rtt_ms, 190.0);
  EXPECT_GT(mz->starlink_distance_km, 6000.0);
  EXPECT_LT(mz->terrestrial_min_rtt_ms, 25.0);

  // Spain: local PoP, Starlink ~33 ms, small distance.
  const auto es = analysis.country_row("ES");
  ASSERT_TRUE(es.has_value());
  EXPECT_LT(es->starlink_min_rtt_ms, 50.0);
  EXPECT_LT(es->starlink_distance_km, 700.0);
}

TEST(Campaign, AnycastSpreadsAcrossSites) {
  // Paper: "clients from the same city often target several CDN servers
  // across different neighbouring countries".
  AimConfig cfg;
  cfg.tests_per_city = 40;
  AimCampaign campaign(shell1(), cfg);
  const auto records = campaign.run_country(data::country("CH"));
  std::set<std::string> sites;
  for (const auto& r : records) {
    if (r.isp == IspType::kTerrestrial && r.city == "Zurich") sites.insert(r.cdn_site);
  }
  EXPECT_GE(sites.size(), 2u);
}

TEST(Campaign, LoadedRttsShowStarlinkBufferbloat) {
  AimConfig cfg;
  cfg.tests_per_city = 10;
  AimCampaign campaign(shell1(), cfg);
  const AimAnalysis analysis(campaign.run_country(data::country("GB")));
  const auto star = analysis.loaded_rtts(IspType::kStarlink);
  const auto terr = analysis.loaded_rtts(IspType::kTerrestrial);
  EXPECT_GT(star.median(), 200.0);              // paper: >200 ms under load
  EXPECT_LT(terr.median(), star.median());
}

TEST(Web, TrancoMixHasTwentyPages) {
  const auto pages = tranco_top_pages();
  EXPECT_EQ(pages.size(), 20u);
  for (const auto& p : pages) {
    EXPECT_GT(p.html.value(), 0.0);
    EXPECT_GT(p.critical_objects, 0u);
  }
}

TEST(Web, FetchMetricsAreConsistent) {
  NetMetProbe probe;
  des::Rng rng(1);
  PathModel path;
  path.bandwidth = Mbps{100.0};
  path.sample_rtt = [](des::Rng&) { return Milliseconds{30.0}; };
  const auto rec = probe.fetch(tranco_top_pages()[0], path, rng);
  EXPECT_DOUBLE_EQ(rec.tcp_connect.value(), 30.0);
  EXPECT_DOUBLE_EQ(rec.tls_handshake.value(), 30.0);
  EXPECT_GT(rec.http_response.value(), 30.0);  // + server think
  EXPECT_GT(rec.first_contentful_paint.value(),
            rec.dns_lookup.value() + rec.tcp_connect.value() +
                rec.tls_handshake.value() + rec.http_response.value());
}

TEST(Web, HigherRttSlowsEverything) {
  NetMetProbe probe;
  des::Rng rng(2);
  PathModel fast, slow;
  fast.bandwidth = slow.bandwidth = Mbps{100.0};
  fast.sample_rtt = [](des::Rng&) { return Milliseconds{10.0}; };
  slow.sample_rtt = [](des::Rng&) { return Milliseconds{80.0}; };
  des::SampleSet fast_fcp, slow_fcp;
  for (int i = 0; i < 50; ++i) {
    fast_fcp.add(probe.fetch(tranco_top_pages()[1], fast, rng).first_contentful_paint.value());
    slow_fcp.add(probe.fetch(tranco_top_pages()[1], slow, rng).first_contentful_paint.value());
  }
  EXPECT_LT(fast_fcp.median(), slow_fcp.median());
}

TEST(Web, StarlinkPathSlowerThanTerrestrialInGermany) {
  // Figure 5: even with a local PoP, Starlink FCP medians are ~200 ms higher.
  const auto& country = data::country("DE");
  const auto& city = data::city("Frankfurt");
  const PathModel terr = terrestrial_path(country, city);
  const PathModel star = starlink_path(shell1(), country, city);
  ASSERT_TRUE(terr.sample_rtt && star.sample_rtt);
  des::Rng rng(3);
  des::SampleSet terr_rtt, star_rtt;
  for (int i = 0; i < 500; ++i) {
    terr_rtt.add(terr.sample_rtt(rng).value());
    star_rtt.add(star.sample_rtt(rng).value());
  }
  EXPECT_GT(star_rtt.median(), terr_rtt.median() + 15.0);
}

TEST(Web, NoCoverageYieldsEmptySampler) {
  // A country marked non-Starlink with far-polar geometry is not routable;
  // use a fabricated pole city via the lat band instead: South Africa has
  // coverage geometry but starlink_available=false -- the campaign must
  // simply skip Starlink records for it.
  NetMetCampaign campaign(shell1(), {.fetches_per_page = 1});
  const auto records = campaign.run_country(data::country("ZA"));
  for (const auto& r : records) EXPECT_EQ(r.isp, IspType::kTerrestrial);
}

TEST(Web, CampaignEmitsPairedRecords) {
  NetMetCampaign campaign(shell1(), {.fetches_per_page = 2});
  const auto records = campaign.run_country(data::country("CY"));
  std::uint32_t star = 0, terr = 0;
  for (const auto& r : records) (r.isp == IspType::kStarlink ? star : terr) += 1;
  EXPECT_EQ(star, terr);
  EXPECT_EQ(terr, 2u * 20u * 2u);  // 2 cities x 20 pages x 2 fetches
}

TEST(Web, HrtDifferenceShapeMatchesFigure4) {
  // Starlink HRT minus terrestrial HRT is mostly positive (terrestrial
  // faster) for GB, negative for NG (the paper's outlier).
  NetMetCampaign campaign(shell1(), {.fetches_per_page = 4});
  for (const auto& [code, mostly_positive] :
       std::vector<std::pair<const char*, bool>>{{"GB", true}, {"NG", false}}) {
    const auto records = campaign.run_country(data::country(code));
    des::SampleSet star, terr;
    for (const auto& r : records) {
      (r.isp == IspType::kStarlink ? star : terr).add(r.http_response.value());
    }
    const double delta = star.median() - terr.median();
    EXPECT_EQ(delta > 0, mostly_positive) << code << " delta=" << delta;
  }
}

}  // namespace
}  // namespace spacecdn::measurement
