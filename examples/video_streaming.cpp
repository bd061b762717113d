// Video streaming over SpaceCDN: stripe a DASH-like video across the
// satellites that will pass over the viewer, exactly as the paper's
// section 4 sketches, and compare against fetching every segment over the
// bent pipe.
//
//   $ ./examples/video_streaming
//   $ ./examples/video_streaming --city="Buenos Aires"
#include <iostream>

#include "data/datasets.hpp"
#include "sim/runner.hpp"
#include "spacecdn/striping.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "video_streaming";
  options.default_seed = 7;
  sim::Runner runner(argc, argv, options);

  lsn::StarlinkNetwork& network = runner.world().network();
  const space::StripingPlanner planner(network.constellation());
  const space::StripedPlaybackSimulator simulator(network, planner);
  des::Rng rng = runner.rng();

  const auto& viewer_city = data::city(runner.get("city", std::string("Nairobi")));
  const auto& country = data::country(viewer_city.country_code);
  const geo::GeoPoint viewer = data::location(viewer_city);

  const Milliseconds video_length = Milliseconds::from_minutes(44.0);  // one episode
  const Milliseconds stripe_length = Milliseconds::from_minutes(4.0);
  const Megabytes stripe_size{180.0};  // ~4 min of 1080p at ~6 Mbps

  std::cout << "viewer: " << viewer_city.name << " (" << country.name << "), assigned PoP: "
            << country.assigned_pop << "\n\n";
  runner.checksum().add_bytes(viewer_city.name);
  runner.checksum().add_bytes(country.assigned_pop);

  // Show the stripe plan: which satellite serves which playback interval.
  const auto plan = planner.plan(viewer, Milliseconds{0.0}, video_length, stripe_length);
  ConsoleTable schedule({"stripe", "playback window (min)", "satellite overhead"});
  for (const auto& stripe : plan) {
    schedule.add_row(
        {std::to_string(stripe.index),
         ConsoleTable::format_fixed(stripe.start.value() / 60000.0, 1) + " - " +
             ConsoleTable::format_fixed(stripe.end.value() / 60000.0, 1),
         stripe.satellite ? std::to_string(*stripe.satellite) : "(coverage gap)"});
    runner.checksum().add_word(stripe.index);
    runner.checksum().add(stripe.start.value());
    runner.checksum().add(stripe.end.value());
    // A coverage gap folds in as a word no satellite id reaches.
    runner.checksum().add_word(stripe.satellite ? *stripe.satellite : ~std::uint64_t{0});
  }
  schedule.render(std::cout);

  const auto striped = simulator.simulate_striped(viewer, country, video_length,
                                                  stripe_length, stripe_size, rng);
  const auto ground = simulator.simulate_ground(viewer, country, video_length,
                                                stripe_length, stripe_size, rng);

  std::cout << "\nstriped playback:   startup " << striped.startup_latency
            << ", mean stripe RTT " << striped.mean_stripe_rtt << ", worst "
            << striped.worst_stripe_rtt << "\n";
  std::cout << "                    " << striped.stripes_from_space
            << " stripes from satellites, " << striped.stripes_from_ground
            << " from the ground; " << striped.prefetch_upload
            << " pre-positioned behind the scenes\n";
  std::cout << "bent-pipe playback: startup " << ground.startup_latency
            << ", mean stripe RTT " << ground.mean_stripe_rtt << ", worst "
            << ground.worst_stripe_rtt << " (loaded-link bufferbloat included)\n";
  for (const Milliseconds v : {striped.startup_latency, striped.mean_stripe_rtt,
                                striped.worst_stripe_rtt}) {
    runner.checksum().add(v.value());
  }
  runner.checksum().add_word(striped.stripes_from_space);
  runner.checksum().add_word(striped.stripes_from_ground);
  runner.checksum().add(striped.prefetch_upload.value());
  for (const Milliseconds v : {ground.startup_latency, ground.mean_stripe_rtt,
                                ground.worst_stripe_rtt}) {
    runner.checksum().add(v.value());
  }
  return runner.finish();
}
