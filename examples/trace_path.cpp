// Synthetic traceroute: see the PoP-centric Starlink data path the way the
// measurement community discovered it.
//
//   $ ./examples/trace_path                      # Maputo -> Frankfurt
//   $ ./examples/trace_path --city="Nairobi" --dest="Johannesburg"
//   $ ./examples/trace_path --waterfall          # + SpaceCDN fetch trace
#include <iostream>

#include "cdn/content.hpp"
#include "data/datasets.hpp"
#include "des/stats.hpp"
#include "measurement/traceroute.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/router.hpp"
#include "util/table.hpp"

namespace {

void print(const char* title, const spacecdn::measurement::Traceroute& trace,
           spacecdn::des::Fnv1aChecksum& checksum) {
  using namespace spacecdn;
  std::cout << "\n" << title << "\n";
  ConsoleTable table({"ttl", "kind", "router", "rtt (ms)"});
  for (const auto& hop : trace.hops) {
    table.add_row({std::to_string(hop.ttl),
                   std::string(measurement::to_string(hop.kind)),
                   hop.responds ? hop.label : "* * * (no response)",
                   hop.responds ? ConsoleTable::format_fixed(hop.rtt.value(), 1) : "-"});
    checksum.add_word(static_cast<std::uint64_t>(hop.ttl));
    checksum.add_bytes(measurement::to_string(hop.kind));
    if (hop.responds) {
      checksum.add_bytes(hop.label);
      checksum.add(hop.rtt.value());
    }
  }
  table.render(std::cout);
}

/// --waterfall: run three SpaceCDN fetches (one per tier) through the
/// instrumented router and render each request's span tree.
void print_fetch_waterfalls(spacecdn::sim::World& world,
                            const spacecdn::data::CityInfo& client_city,
                            spacecdn::des::Rng rng, spacecdn::des::Fnv1aChecksum& checksum) {
  using namespace spacecdn;
  const lsn::StarlinkNetwork& network = world.network();
  space::SatelliteFleet fleet =
      world.make_fleet(space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment& ground = world.ground_cdn();
  space::RouterConfig rcfg;
  rcfg.admit_on_fetch = false;  // keep each demo fetch on its own tier
  space::SpaceCdnRouter router(network, fleet, ground, rcfg);

  obs::TelemetrySession telemetry;
  telemetry.tracer().set_retain(1);

  const geo::GeoPoint client = data::location(client_city);
  const auto& country = data::country(client_city.country_code);
  const auto serving = network.snapshot().serving_satellite(
      client, network.config().user_min_elevation_deg);
  if (!serving) {
    std::cout << "\n(no satellite coverage over " << client_city.name
              << "; skipping fetch waterfalls)\n";
    return;
  }

  // Tier (i): on the overhead satellite.  Tier (ii): on a grid neighbour.
  // Tier (iii): nowhere in space, so the bent pipe serves.
  const cdn::ContentItem tier1{1, Megabytes{10.0}, country.region};
  const cdn::ContentItem tier2{2, Megabytes{10.0}, country.region};
  const cdn::ContentItem tier3{3, Megabytes{10.0}, country.region};
  (void)fleet.cache(*serving).insert(tier1, Milliseconds{0.0});
  (void)fleet.cache(network.constellation().grid_neighbors(*serving)[2])
      .insert(tier2, Milliseconds{0.0});

  std::cout << "\n=== SpaceCDN fetch waterfalls from " << client_city.name
            << " (simulated ms) ===\n";
  for (const auto& item : {tier1, tier2, tier3}) {
    const auto result = router.fetch(client, country, item, rng, Milliseconds{0.0});
    std::cout << "\n";
    const obs::Trace& trace = telemetry.tracer().last();
    obs::render_waterfall(std::cout, trace);
    for (const obs::TraceSpan& span : trace.spans) {
      checksum.add_bytes(span.name);
      checksum.add(span.start.value());
      checksum.add(span.duration.value());
    }
    if (result) {
      std::cout << "served by tier: " << space::to_string(result->tier) << "\n";
      checksum.add_bytes(space::to_string(result->tier));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "trace_path";
  options.default_seed = 23;
  sim::Runner runner(argc, argv, options);
  const std::string city_name = runner.get("city", std::string("Maputo"));
  const std::string dest_name = runner.get("dest", std::string("Frankfurt"));
  const bool waterfall = runner.get("waterfall", false);
  const std::uint64_t waterfall_seed =
      static_cast<std::uint64_t>(runner.get("waterfall-seed", 24L));

  const auto& client = data::city(city_name);
  const geo::GeoPoint destination = data::location(data::city(dest_name));

  lsn::StarlinkNetwork& network = runner.world().network();
  const measurement::TracerouteSynthesizer synth(network);
  des::Rng rng = runner.rng();

  std::cout << "traceroute from " << client.name << " to " << dest_name << ":\n";
  const auto star = synth.starlink(client, destination, rng);
  print("=== over Starlink ===", star, runner.checksum());
  const std::string inferred = synth.infer_pop(star, client);
  if (!inferred.empty()) {
    const auto& pop = data::pop(inferred);
    runner.checksum().add_bytes(inferred);
    std::cout << "inferred PoP: " << pop.city << " (" << pop.country_code
              << ") -- the subscriber's public IP geolocates here, not in "
              << data::country(client.country_code).name << "\n";
  }

  const auto terr = synth.terrestrial(client, destination, rng);
  print("=== over a terrestrial ISP ===", terr, runner.checksum());

  if (waterfall) {
    print_fetch_waterfalls(runner.world(), client, des::Rng(waterfall_seed),
                           runner.checksum());
  }
  return runner.finish();
}
