// Mega-constellation, mega-user scale proof: >= 1M simulated user terminals
// over the multi-shell starlink-4shell preset.
//
// The paper's client set is one terminal per covered city; the large-scale
// Starlink measurement studies (IPv6 census, Multifaceted Look) see the real
// network at millions of subscribers over ~5-10k satellites.  This bench
// synthesizes that population -- sim::synthesize_users scatters N terminals
// around the covered cities -- and drives two phases over it:
//
//   Phase 1  assigns every terminal its serving satellite through the
//            spatial-grid visibility index (the operation that was an O(N)
//            scan per query before the index existed), sharded across the
//            pool with the per-user assignments checksummed in user order,
//            so --threads=1 and --threads=N are bit-identical.
//   Phase 2  runs the full open-loop load engine (Poisson arrivals, finite
//            capacities, admission control) with the synthetic fleet as the
//            client set: one serial DES over N per-user RNG streams.
//
// CI runs this on a reduced --users smoke point with a serial-vs-parallel
// checksum gate; the full 1M-user configuration is the default.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "load/load_runner.hpp"
#include "sim/runner.hpp"
#include "sim/users.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "mega_user_load";
  options.title = "Mega-user load: >=1M terminals over a multi-shell constellation";
  options.paper_ref = "extends Bose et al., HotNets '24, section 3.2 to measured scale";
  options.default_seed = 10;
  options.defaults.constellation = "starlink-4shell";
  options.defaults.arrival_rate_rps = 20'000.0;
  options.defaults.load_horizon_s = 10.0;
  options.defaults.link_capacity_scale = 0.15;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const auto users_requested = runner.get("users", 1'000'000L);
  const auto n_users = static_cast<std::size_t>(users_requested < 0 ? 0 : users_requested);

  // Touch every lazily-built substrate piece once before sharding.
  lsn::StarlinkNetwork& network = runner.world().network();
  const std::vector<sim::Shell1Client>& cities = runner.world().clients();
  const load::LoadConfig config = load::load_config_from_spec(runner.spec());
  const orbit::WalkerConstellation& constellation = network.constellation();

  auto t0 = std::chrono::steady_clock::now();
  const std::vector<sim::Shell1Client> users =
      sim::synthesize_users(cities, n_users, runner.seed());
  const double synth_s = seconds_since(t0);

  std::cout << "constellation: " << runner.spec().constellation << " ("
            << constellation.size() << " satellites, " << constellation.shell_count()
            << " shells), users: " << users.size() << " across " << cities.size()
            << " cities (coverage |lat| <= " << runner.spec().coverage_lat_deg
            << ")\n\n";

  // --- Phase 1: serving-satellite assignment for every terminal ---
  const double min_elev = network.config().user_min_elevation_deg;
  const orbit::EphemerisSnapshot& snapshot = network.snapshot();
  std::vector<std::int64_t> serving(users.size(), -1);

  t0 = std::chrono::steady_clock::now();
  const std::size_t shards =
      std::max<std::size_t>(std::size_t{1}, runner.pool().thread_count() * 8);
  runner.pool().parallel_for(shards, [&](std::size_t s) {
    const std::size_t lo = users.size() * s / shards;
    const std::size_t hi = users.size() * (s + 1) / shards;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto sat = snapshot.serving_satellite(sim::client_location(users[i]), min_elev);
      if (sat) serving[i] = static_cast<std::int64_t>(*sat);
    }
  });
  const double assign_s = seconds_since(t0);

  // Checksum in user order: identical for any shard count.
  std::size_t covered = 0;
  std::vector<std::size_t> per_shell(constellation.shell_count(), 0);
  for (const std::int64_t sat : serving) {
    runner.checksum().add(static_cast<double>(sat));
    if (sat >= 0) {
      ++covered;
      ++per_shell[constellation.shell_of(static_cast<std::uint32_t>(sat))];
    }
  }

  std::cout << "Phase 1 (serving-satellite assignment): " << users.size()
            << " queries in " << ConsoleTable::format_fixed(assign_s, 2) << " s ("
            << ConsoleTable::format_fixed(
                   assign_s > 0.0 ? static_cast<double>(users.size()) / assign_s / 1e6 : 0.0,
                   2)
            << " M queries/s), synthesis " << ConsoleTable::format_fixed(synth_s, 2)
            << " s\n";
  ConsoleTable shells({"shell", "planes x slots", "altitude km", "incl deg", "serving"});
  for (std::uint32_t s = 0; s < constellation.shell_count(); ++s) {
    const orbit::WalkerDesign& d = constellation.shell(s);
    shells.add_row("shell " + std::to_string(s),
                   {static_cast<double>(d.planes * 1000 + d.sats_per_plane),
                    d.altitude.value(), d.inclination_deg,
                    static_cast<double>(per_shell[s])});
  }
  shells.render(std::cout);
  std::cout << "covered terminals: " << covered << " / " << users.size() << "\n\n";

  // --- Phase 2: open-loop load over the synthetic fleet ---
  t0 = std::chrono::steady_clock::now();
  space::SatelliteFleet fleet = runner.world().make_fleet();
  cdn::CdnDeployment ground = runner.world().make_ground_cdn();
  load::LoadRunner engine(network, fleet, ground, users, config);
  const load::LoadReport report = engine.run();
  const double load_s = seconds_since(t0);

  for (const double v : report.latency_ms.raw()) runner.checksum().add(v);

  std::cout << "Phase 2 (open-loop load engine): "
            << ConsoleTable::format_fixed(config.traffic.requests_per_second, 0)
            << " rps x " << ConsoleTable::format_fixed(runner.spec().load_horizon_s, 0)
            << " s horizon over " << users.size() << " per-user streams in "
            << ConsoleTable::format_fixed(load_s, 2) << " s\n";
  std::cout << "run threads: " << runner.pool().thread_count() << "\n\n";

  ConsoleTable summary({"offered", "completed", "reject %", "no coverage", "p50 ms",
                        "p99 ms", "goodput Mbps", "max util"});
  summary.add_row(ConsoleTable::format_fixed(static_cast<double>(report.offered), 0),
                  {static_cast<double>(report.completed), 100.0 * report.reject_fraction(),
                   static_cast<double>(report.no_coverage),
                   report.latency_ms.empty() ? 0.0 : report.latency_ms.quantile(0.5),
                   report.latency_ms.empty() ? 0.0 : report.latency_ms.quantile(0.99),
                   report.goodput_mbps, report.max_utilization});
  summary.render(std::cout);

  if (!report.latency_ms.empty()) {
    std::cout << "\nCompletion-latency CDF:\n";
    bench::print_cdf_table({"completion ms", "queue wait ms"},
                           {&report.latency_ms, &report.queue_wait_ms},
                           {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999});
  }

  // Shape checks: the multi-shell constellation must actually cover the
  // fleet (the polar shell closes the high-latitude gap), and phase 1 must
  // sustain mega-user throughput.
  bool ok = true;
  if (covered < users.size() * 95 / 100) {
    std::cout << "FAIL: < 95% of terminals covered (" << covered << "/" << users.size()
              << ")\n";
    ok = false;
  }
  if (!report.latency_ms.empty() && report.completed == 0) {
    std::cout << "FAIL: load engine completed zero requests\n";
    ok = false;
  }

  runner.record("users", static_cast<double>(users.size()));
  runner.record("satellites", static_cast<double>(constellation.size()));
  runner.record("covered_fraction",
                users.empty() ? 0.0
                              : static_cast<double>(covered) / static_cast<double>(users.size()));
  runner.record("assign_seconds", assign_s);
  runner.record("assign_mqps",
                assign_s > 0.0 ? static_cast<double>(users.size()) / assign_s / 1e6 : 0.0);
  runner.record("load_seconds", load_s);
  runner.record("completed", static_cast<double>(report.completed));
  if (!report.latency_ms.empty()) {
    runner.record("p50_ms", report.latency_ms.quantile(0.5));
    runner.record("p99_ms", report.latency_ms.quantile(0.99));
  }
  return runner.finish(ok);
}
