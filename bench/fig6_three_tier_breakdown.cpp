// Figure 6 companion: the three-tier SpaceCDN fetch path in action.
//
// Figure 6 is the paper's architecture illustration -- (i) fetch from the
// overhead satellite, (ii) ISL route to the nearest caching satellite,
// (iii) fall back to the ground cache.  This bench drives a regional Zipf
// workload through the router and reports how traffic distributes across
// the tiers as the constellation warms, plus the latency of each tier.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "spacecdn/router.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "fig6_three_tier_breakdown";
  options.title = "Figure 6 companion: three-tier fetch breakdown while warming";
  options.paper_ref = "Bose et al., HotNets '24, Figure 6 (SpaceCDN overview)";
  options.default_seed = 24;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const cdn::ContentCatalog catalog({.object_count = 2000}, rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});
  space::SatelliteFleet& fleet = runner.world().fleet();
  space::SpaceCdnRouter router(runner.world().network(), fleet,
                               runner.world().ground_cdn());

  std::vector<const data::CityInfo*> clients;
  for (const char* name : {"Maputo", "Nairobi", "Kigali", "Lusaka"}) {
    clients.push_back(&data::city(name));
  }

  ConsoleTable table({"requests so far", "tier (i) overhead sat", "tier (ii) ISL",
                      "tier (iii) ground", "median RTT i (ms)", "median RTT ii (ms)",
                      "median RTT iii (ms)"});
  std::uint64_t counts[3] = {0, 0, 0};
  des::SampleSet latency[3];
  const int kTotal = static_cast<int>(runner.get("requests", 4000L));
  int since_snapshot = 0;
  for (int i = 1; i <= kTotal; ++i) {
    const auto* city = clients[rng.uniform_int(0, clients.size() - 1)];
    const auto& country = data::country(city->country_code);
    const auto region = country.region;
    const auto id = popularity.sample(region, rng);
    const auto result = router.fetch(data::location(*city), country, catalog.item(id),
                                     rng, Milliseconds{i * 50.0});
    if (!result) continue;
    const auto tier = static_cast<std::size_t>(result->tier);
    ++counts[tier];
    latency[tier].add(result->rtt.value());
    runner.checksum().add(result->rtt.value());
    runner.checksum().add(static_cast<double>(tier));
    runner.checksum().add(static_cast<double>(result->serving_satellite));

    if (++since_snapshot == kTotal / 4) {
      since_snapshot = 0;
      const auto pct = [&](std::size_t t) {
        return ConsoleTable::format_fixed(
                   100.0 * counts[t] / (counts[0] + counts[1] + counts[2]), 1) +
               "%";
      };
      const auto med = [&](std::size_t t) {
        return latency[t].empty()
                   ? std::string("-")
                   : ConsoleTable::format_fixed(latency[t].median(), 1);
      };
      table.add_row({std::to_string(i), pct(0), pct(1), pct(2), med(0), med(1), med(2)});
    }
  }
  table.render(std::cout);

  std::cout << "\nThe ground tier dominates only while the constellation is "
               "cold; pull-through admission migrates the regional working "
               "set into orbit, and the overhead-satellite tier takes over at "
               "a tenth of the bent-pipe latency (the red arrow in Figure 6).\n";
  runner.record("tier1_requests", static_cast<double>(counts[0]));
  runner.record("tier2_requests", static_cast<double>(counts[1]));
  runner.record("tier3_requests", static_cast<double>(counts[2]));
  return runner.finish();
}
