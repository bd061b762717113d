// Ablation: graceful degradation past saturation.
//
// Sweeps the offered load far beyond what the constellation's downlinks can
// carry and checks the two properties that make an overloaded SpaceCDN
// usable rather than collapsed:
//
//   (i)  p99 completion latency grows monotonically with offered load but
//        stays *bounded* -- admission control sheds excess transfers at the
//        serving satellite instead of letting queues grow without limit;
//   (ii) the rejection fraction, not the latency of admitted requests,
//        absorbs the overload (open-loop arrivals keep coming regardless).
//
// Also reports how the FIFO vs DRR bottleneck discipline changes the tail
// (one hot city's elephants vs everyone else).
#include <algorithm>
#include <iostream>
#include <vector>

#include "load/load_runner.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

const std::vector<double> kLoadMultipliers{0.5, 1.0, 2.0, 4.0, 8.0, 16.0};

}  // namespace

int main(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "ablation_overload";
  options.title = "Ablation: overload behaviour of the request-level load engine";
  options.paper_ref = "extends Bose et al., HotNets '24, section 3.2";
  options.default_seed = 90;
  // Tightened capacities put the nominal point at the hottest downlink's
  // saturation knee; the 16x point is deep overload.  The horizon is short
  // because the top multiplier alone replays ~16x the nominal request count.
  options.defaults.arrival_rate_rps = 10'000.0;
  options.defaults.load_horizon_s = 5.0;
  options.defaults.link_capacity_scale = 0.1;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  lsn::StarlinkNetwork& network = runner.world().network();
  const std::vector<sim::Shell1Client>& clients = runner.world().clients();
  const load::LoadConfig base = load::load_config_from_spec(runner.spec());

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

  runner.csv() << "multiplier,offered_rps,offered,completed,rejected,"
                  "reject_fraction,p50_ms,p95_ms,p99_ms,goodput_mbps,"
                  "max_utilization,peak_queue_depth\n";
  ConsoleTable table({"x nominal", "offered", "completed", "reject %", "p50 ms",
                      "p99 ms", "goodput Mbps", "peak depth"});
  for (std::size_t p = 0; p < kLoadMultipliers.size(); ++p) {
    const load::LoadReport& r = reports[p];
    const double offered_rps = base.traffic.requests_per_second * kLoadMultipliers[p];
    const double p50 = r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.5);
    const double p95 = r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.95);
    const double p99 = r.latency_ms.empty() ? 0.0 : r.latency_ms.quantile(0.99);
    runner.csv() << kLoadMultipliers[p] << ',' << offered_rps << ',' << r.offered << ','
                 << r.completed << ',' << r.rejected << ',' << r.reject_fraction()
                 << ',' << p50 << ',' << p95 << ',' << p99 << ',' << r.goodput_mbps
                 << ',' << r.max_utilization << ',' << r.peak_queue_depth << '\n';
    table.add_row(ConsoleTable::format_fixed(kLoadMultipliers[p], 2),
                  {static_cast<double>(r.offered), static_cast<double>(r.completed),
                   100.0 * r.reject_fraction(), p50, p99, r.goodput_mbps,
                   static_cast<double>(r.peak_queue_depth)});
  }
  table.render(std::cout);

  // Degradation checks.
  bool ok = true;
  double previous_p99 = 0.0;
  for (std::size_t p = 0; p < reports.size(); ++p) {
    if (reports[p].latency_ms.empty()) continue;
    const double p99 = reports[p].latency_ms.quantile(0.99);
    if (p99 < previous_p99 * 0.8) {
      std::cout << "FAIL: p99 fell sharply at load point " << p
                << " (expected monotone-ish growth)\n";
      ok = false;
    }
    previous_p99 = std::max(previous_p99, p99);
  }
  // Bounded tail: with admission shedding, the deepest-overload p99 must
  // stay within a small multiple of the nominal-load p99, and the shed
  // fraction must be where the overload went.
  const load::LoadReport& nominal = reports[1];
  const load::LoadReport& deepest = reports.back();
  if (!nominal.latency_ms.empty() && !deepest.latency_ms.empty()) {
    const double nominal_p99 = nominal.latency_ms.quantile(0.99);
    const double deep_p99 = deepest.latency_ms.quantile(0.99);
    std::cout << "\nGraceful degradation: p99 " << ConsoleTable::format_fixed(nominal_p99, 1)
              << " ms at nominal vs " << ConsoleTable::format_fixed(deep_p99, 1)
              << " ms at " << kLoadMultipliers.back() << "x, rejecting "
              << ConsoleTable::format_fixed(100.0 * deepest.reject_fraction(), 1)
              << "% of arrivals\n";
    if (deep_p99 > nominal_p99 * 50.0) {
      std::cout << "FAIL: overload tail unbounded (admission control ineffective)\n";
      ok = false;
    }
    if (deepest.reject_fraction() <= nominal.reject_fraction()) {
      std::cout << "FAIL: deep overload sheds no more load than nominal\n";
      ok = false;
    }
    runner.record("nominal_p99_ms", nominal_p99);
    runner.record("overload_p99_ms", deep_p99);
    runner.record("overload_reject_fraction", deepest.reject_fraction());
    runner.record("overload_goodput_mbps", deepest.goodput_mbps);
  }
  return runner.finish(ok);
}
