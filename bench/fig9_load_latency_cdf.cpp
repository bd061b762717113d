// Figure 9 (extension): request-completion latency under open-loop load.
//
// The paper's figures 4-8 are latency-only -- links are infinitely fast.
// This bench drives the load engine (src/load) instead: per-city Poisson
// arrivals, finite downlink/gateway/ISL capacities, explicit bottleneck
// queues, and admission control, sweeping the offered load from well below
// to well past the nominal rate.  The headline series is the tail (p99)
// completion latency versus offered load, plus the full CDF at the nominal
// point.
//
// Determinism: each offered-load point is one fully serial simulation with
// its own fleet + ground CDN; points shard across the pool and merge in
// point order, so the FNV-1a checksum over every completion latency is
// bit-identical for any --threads value (the CI gate runs 1 vs 4).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "load/load_runner.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

/// Offered load as a multiple of the scenario's arrival-rate.
const std::vector<double> kLoadMultipliers{0.25, 0.5, 1.0, 2.0, 4.0};

}  // namespace

int main(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "fig9_load_latency_cdf";
  options.title = "Figure 9: completion-latency CDF and p99 vs offered load";
  options.paper_ref = "extends Bose et al., HotNets '24, section 3.2 (loaded paths)";
  options.default_seed = 9;
  // Published defaults: enough offered load, over tightened capacities, that
  // the nominal point sits near the hottest downlink's knee (~70% util) and
  // the 4x point is clearly past saturation.
  options.defaults.arrival_rate_rps = 10'000.0;
  options.defaults.load_horizon_s = 10.0;
  options.defaults.link_capacity_scale = 0.15;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  // Touch every lazily-built substrate piece once before sharding (World's
  // lazy init is not thread-safe by design).
  lsn::StarlinkNetwork& network = runner.world().network();
  const std::vector<sim::Shell1Client>& clients = runner.world().clients();
  const load::LoadConfig base = load::load_config_from_spec(runner.spec());

  // One point per offered-load multiplier, each an independent serial
  // simulation over its own fleet + ground CDN (common random numbers: the
  // per-city arrival streams share the run seed, so points differ only in
  // rate).  Points may finish out of order; the merge below walks them in
  // point order.
  std::vector<load::LoadReport> reports(kLoadMultipliers.size());
  runner.pool().parallel_for(kLoadMultipliers.size(), [&](std::size_t p) {
    load::LoadConfig config = base;
    config.traffic.requests_per_second *= kLoadMultipliers[p];
    space::SatelliteFleet fleet = runner.world().make_fleet();
    cdn::CdnDeployment ground = runner.world().make_ground_cdn();
    load::LoadRunner engine(network, fleet, ground, clients, config);
    reports[p] = engine.run();
  });

  for (const load::LoadReport& report : reports) {
    for (const double v : report.latency_ms.raw()) runner.checksum().add(v);
  }

  std::cout << "sweep threads: " << runner.pool().thread_count() << "\n\n";

  ConsoleTable sweep({"offered rps", "completed", "reject %", "p50 ms", "p95 ms",
                      "p99 ms", "goodput Mbps", "max util"});
  for (std::size_t p = 0; p < kLoadMultipliers.size(); ++p) {
    const load::LoadReport& r = reports[p];
    const double offered_rps =
        base.traffic.requests_per_second * kLoadMultipliers[p];
    sweep.add_row(ConsoleTable::format_fixed(offered_rps, 0),
                  {static_cast<double>(r.completed), 100.0 * r.reject_fraction(),
                   r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.5),
                   r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.95),
                   r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.99),
                   r.goodput_mbps, r.max_utilization});
  }
  sweep.render(std::cout);

  // Full CDF at the nominal point (multiplier 1.0) with its queueing-delay
  // component alongside -- the gap between the two is what finite capacity
  // costs over the latency-only model.
  const std::size_t nominal = 2;  // kLoadMultipliers[2] == 1.0
  std::cout << "\nNominal-load CDF ("
            << ConsoleTable::format_fixed(base.traffic.requests_per_second, 0)
            << " rps):\n";
  bench::print_cdf_table(
      {"completion ms", "queue wait ms"},
      {&reports[nominal].latency_ms, &reports[nominal].queue_wait_ms},
      {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999});

  const load::LoadReport& nom = reports[nominal];
  std::cout << "\nShape checks:\n"
            << "  - offered " << nom.offered << ", completed " << nom.completed
            << ", rejected " << nom.rejected << ", no coverage " << nom.no_coverage
            << "\n  - peak queue depth " << nom.peak_queue_depth
            << ", peak concurrent transfers " << nom.peak_active_transfers
            << ", hottest downlink at "
            << ConsoleTable::format_fixed(100.0 * nom.max_utilization, 1) << "% util\n";

  bool ok = true;
  for (std::size_t p = 0; p + 1 < reports.size(); ++p) {
    if (reports[p].latency_ms.empty() || reports[p + 1].latency_ms.empty()) continue;
    // Tail latency must not *improve* as offered load doubles (small
    // tolerance: quantiles of independent Poisson draws wobble).
    if (reports[p + 1].latency_ms.quantile(0.99) <
        reports[p].latency_ms.quantile(0.99) * 0.8) {
      std::cout << "FAIL: p99 dropped sharply between load points " << p << " and "
                << p + 1 << "\n";
      ok = false;
    }
  }

  if (!nom.latency_ms.empty()) {
    runner.record("nominal_p50_ms", nom.latency_ms.quantile(0.5));
    runner.record("nominal_p99_ms", nom.latency_ms.quantile(0.99));
    runner.record("nominal_p999_ms", nom.latency_ms.quantile(0.999));
    runner.record("nominal_goodput_mbps", nom.goodput_mbps);
  }
  const load::LoadReport& peak = reports.back();
  if (!peak.latency_ms.empty()) {
    runner.record("overload_p99_ms", peak.latency_ms.quantile(0.99));
    runner.record("overload_reject_fraction", peak.reject_fraction());
  }
  return runner.finish(ok);
}
