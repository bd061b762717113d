#include "measurement/aim.hpp"

#include <string_view>

#include "data/datasets.hpp"
#include "des/stats.hpp"
#include "geo/distance.hpp"

namespace spacecdn::measurement {

std::string_view to_string(IspType isp) noexcept {
  return isp == IspType::kStarlink ? "starlink" : "terrestrial";
}

namespace {

// Stable per-country RNG stream id: FNV-1a of the ISO code, so the stream a
// country draws from does not depend on its position in the dataset.
std::uint64_t country_stream(std::string_view code) {
  des::Fnv1aChecksum hash;
  hash.add_bytes(code);
  return hash.digest();
}

}  // namespace

AimCampaign::AimCampaign(const lsn::StarlinkNetwork& network, AimConfig config)
    : network_(&network),
      config_(config),
      selector_(config.anycast_noise_ms) {}

std::vector<SpeedTestRecord> AimCampaign::run() {
  std::vector<SpeedTestRecord> out;
  for (const data::CountryInfo* country : data::starlink_countries()) {
    auto records = run_country(*country);
    out.insert(out.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  return out;
}

std::vector<SpeedTestRecord> AimCampaign::run(ThreadPool& pool) {
  const auto countries = data::starlink_countries();
  std::vector<std::vector<SpeedTestRecord>> shards(countries.size());
  pool.parallel_for(countries.size(), [&](std::size_t i) {
    shards[i] = run_country(*countries[i]);
  });
  std::vector<SpeedTestRecord> out;
  for (auto& shard : shards) {
    out.insert(out.end(), std::make_move_iterator(shard.begin()),
               std::make_move_iterator(shard.end()));
  }
  return out;
}

std::vector<SpeedTestRecord> AimCampaign::run_country(
    const data::CountryInfo& country) const {
  des::Rng rng(des::mix_seed(config_.seed, country_stream(country.code)));
  std::vector<SpeedTestRecord> out;
  for (const data::CityInfo* city : data::cities_in(country.code)) {
    run_city_terrestrial(country, *city, rng, out);
    if (country.starlink_available) run_city_starlink(country, *city, rng, out);
  }
  return out;
}

void AimCampaign::run_city_terrestrial(const data::CountryInfo& country,
                                       const data::CityInfo& city, des::Rng& rng,
                                       std::vector<SpeedTestRecord>& out) const {
  const terrestrial::TerrestrialIsp isp(country);
  const geo::GeoPoint client = data::location(city);
  const auto sites = data::cdn_sites();

  std::vector<Milliseconds> baselines;
  baselines.reserve(sites.size());
  for (const auto& site : sites) {
    baselines.push_back(isp.baseline_rtt(client, data::location(site)));
  }

  for (std::uint32_t t = 0; t < config_.tests_per_city; ++t) {
    const net::AnycastChoice choice = selector_.select(baselines, rng);
    const auto& site = sites[choice.site_index];
    const geo::GeoPoint server = data::location(site);

    SpeedTestRecord rec;
    rec.country_code = country.code;
    rec.city = city.name;
    rec.isp = IspType::kTerrestrial;
    rec.cdn_site = site.iata;
    rec.idle_rtt = isp.sample_idle_rtt(client, server, rng);
    rec.loaded_rtt = isp.sample_loaded_rtt(client, server, config_.loaded_fraction, rng);
    rec.jitter = Milliseconds{rng.exponential(rec.idle_rtt.value() * 0.05)};
    rec.download = isp.download_bandwidth() * rng.uniform(0.55, 1.0);
    rec.upload = isp.download_bandwidth() * rng.uniform(0.08, 0.2);
    rec.distance = geo::great_circle_distance(client, server);
    out.push_back(std::move(rec));
  }
}

void AimCampaign::run_city_starlink(const data::CountryInfo& country,
                                    const data::CityInfo& city, des::Rng& rng,
                                    std::vector<SpeedTestRecord>& out) const {
  const geo::GeoPoint client = data::location(city);
  const auto breakdown = network_->router().route_to_pop(client, country);
  if (!breakdown) return;  // coverage gap at this epoch

  const geo::GeoPoint pop_location =
      data::location(network_->ground().pop(breakdown->pop));
  const auto& backbone = network_->ground().backbone();
  const auto sites = data::cdn_sites();

  // Anycast sees the client at its PoP: per-site baselines all share the
  // space segment and differ only in the PoP->site terrestrial leg.  This is
  // the mechanism behind the paper's headline mismatch.
  const Milliseconds space_one_way = breakdown->one_way_to_pop();
  std::vector<Milliseconds> baselines;
  baselines.reserve(sites.size());
  for (const auto& site : sites) {
    const Milliseconds pop_site = backbone.one_way_latency(pop_location,
                                                           data::location(site));
    baselines.push_back((space_one_way + pop_site) * 2.0 +
                        network_->access().config().median_overhead_rtt);
  }

  for (std::uint32_t t = 0; t < config_.tests_per_city; ++t) {
    const net::AnycastChoice choice = selector_.select(baselines, rng);
    const auto& site = sites[choice.site_index];
    const geo::GeoPoint server = data::location(site);
    const Milliseconds pop_site = backbone.one_way_latency(pop_location, server);
    const Milliseconds propagation = (space_one_way + pop_site) * 2.0;

    SpeedTestRecord rec;
    rec.country_code = country.code;
    rec.city = city.name;
    rec.isp = IspType::kStarlink;
    rec.cdn_site = site.iata;
    rec.idle_rtt = propagation + network_->access().sample_idle_overhead(rng);
    rec.loaded_rtt =
        propagation +
        network_->access().sample_loaded_overhead(config_.loaded_fraction, rng);
    rec.jitter = Milliseconds{rng.exponential(8.0)};
    rec.download = network_->download_bandwidth() * rng.uniform(0.5, 1.0);
    rec.upload = Mbps{rng.uniform(8.0, 20.0)};
    rec.distance = geo::great_circle_distance(client, server);
    out.push_back(std::move(rec));
  }
}

}  // namespace spacecdn::measurement
