// Ablation: SpaceCDN under continuous churn (dynamic fault injection).
//
// Where ablation_failures studies *static* laser-terminal failure sets, this
// sweep drives the full self-healing loop: a seeded FaultSchedule fails and
// recovers satellites, laser terminals, gateways, and cache processes over a
// simulated 24 h; the ChurnController applies each event to the live network
// incrementally; clients fetch through the retrying, tier-escalating
// fetch_resilient path; and the RepairDaemon restores the k-copies-per-plane
// placement invariant after every cache crash.  Reported per (MTBF, MTTR)
// point: fetch availability, p50/p99 client latency, retry rate, repair
// volume, and mean time-to-repair.  Geometry is frozen at the epoch so the
// numbers isolate churn dynamics from orbital motion.
//
// Identical seeds produce identical rows (asserted below by re-running the
// acceptance point); the table is also emitted as machine-readable CSV.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "faults/schedule.hpp"
#include "sim/runner.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/resilience.hpp"
#include "spacecdn/router.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

constexpr Milliseconds kHorizon = Milliseconds::from_minutes(24.0 * 60.0);
constexpr int kFetches = 2000;
constexpr std::uint64_t kCatalogSize = 200;

struct ChurnRunResult {
  double availability = 0.0;  // fraction of fetches that succeeded
  double p50_ms = 0.0;        // client-observed total latency
  double p99_ms = 0.0;
  double mean_retries = 0.0;
  std::uint64_t re_replicated = 0;   // repaired from surviving space copies
  std::uint64_t ground_refills = 0;  // repaired from the ground origin
  double mean_ttr_min = 0.0;         // cache-crash to fully-repaired
  std::uint64_t satellite_failures = 0;
  std::uint64_t cache_crashes = 0;

  friend bool operator==(const ChurnRunResult&, const ChurnRunResult&) = default;
};

ChurnRunResult run_churn(const sim::World& world, Milliseconds mtbf, Milliseconds mttr,
                         std::uint64_t seed, std::uint64_t catalog_seed) {
  // Shell 1, frozen at the epoch; each sweep point owns an unshared variant.
  const auto network_ptr =
      world.make_network(lsn::starlink_preset(world.spec().constellation));
  lsn::StarlinkNetwork& network = *network_ptr;
  des::Rng catalog_rng(catalog_seed);
  const cdn::ContentCatalog catalog({.object_count = kCatalogSize}, catalog_rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});
  space::SatelliteFleet fleet(network.constellation().size(), world.fleet_config());
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(network, fleet, ground,
                               {.resilience = {.transient_loss = 0.01}});

  // Pre-seed the paper's 4-copies-per-plane placement; the repair daemon
  // guards exactly this invariant for the whole catalog.
  const space::ContentPlacement placement(network.constellation(), {});
  const std::vector<cdn::ContentItem>& items = catalog.items();
  placement.prewarm(fleet, items, Milliseconds{0.0});

  // Fault timeline: satellite outages and cache crashes follow the swept
  // (MTBF, MTTR); laser flaps and gateway outages stay at fixed paper-scale
  // rates so every sweep point sees the same background churn classes.
  faults::ChurnConfig churn;
  churn.horizon = kHorizon;
  churn.satellite = {mtbf, mttr};
  churn.laser_terminal = {Milliseconds::from_minutes(12.0 * 60.0),
                          Milliseconds::from_minutes(10.0)};
  churn.ground_station = {Milliseconds::from_minutes(24.0 * 60.0),
                          Milliseconds::from_minutes(60.0)};
  churn.cache_node = {mtbf * 2.0, mttr};
  des::Rng fault_rng(seed);
  const auto schedule = faults::FaultSchedule::generate(
      churn,
      {.satellites = network.constellation().size(),
       .ground_stations = static_cast<std::uint32_t>(network.ground().gateway_count())},
      fault_rng);

  des::Simulator sim;
  space::ChurnController controller(network, fleet);
  space::RepairDaemon daemon(fleet, placement, items, {});
  schedule.install(sim, [&](const faults::FaultEvent& event) {
    controller.apply(event);
    if (event.component == faults::Component::kCacheNode &&
        event.transition == faults::Transition::kFail) {
      daemon.note_crash(event.target, event.at);
    }
  });
  daemon.install(sim, kHorizon);

  std::vector<const data::CityInfo*> clients;
  for (const char* name :
       {"London", "Sao Paulo", "Tokyo", "Nairobi", "Denver", "Maputo", "Kigali",
        "Lusaka"}) {
    clients.push_back(&data::city(name));
  }

  des::Rng workload_rng(seed + 1);
  std::uint64_t total = 0, ok = 0, retries = 0;
  des::SampleSet latency;
  const Milliseconds step{kHorizon.value() / kFetches};
  for (int i = 1; i <= kFetches; ++i) {
    sim.schedule_at(step * static_cast<double>(i), [&] {
      const auto* city = clients[workload_rng.uniform_int(0, clients.size() - 1)];
      const auto& country = data::country(city->country_code);
      const auto id = popularity.sample(country.region, workload_rng);
      const auto result = router.fetch_resilient(
          data::location(*city), country, catalog.item(id), workload_rng, sim.now());
      ++total;
      retries += result.retries;
      if (result.success) {
        ++ok;
        latency.add(result.total_latency.value());
      }
    });
  }

  sim.run();

  ChurnRunResult out;
  out.availability = total == 0 ? 0.0 : static_cast<double>(ok) / total;
  out.p50_ms = latency.empty() ? 0.0 : latency.quantile(0.50);
  out.p99_ms = latency.empty() ? 0.0 : latency.quantile(0.99);
  out.mean_retries = total == 0 ? 0.0 : static_cast<double>(retries) / total;
  out.re_replicated = daemon.totals().re_replicated;
  out.ground_refills = daemon.totals().ground_refills;
  out.mean_ttr_min =
      daemon.time_to_repair().empty() ? 0.0 : daemon.time_to_repair().mean() / 60'000.0;
  out.satellite_failures = controller.counters().satellite_failures;
  out.cache_crashes = controller.counters().cache_crashes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "ablation_churn";
  options.title = "Ablation: self-healing SpaceCDN under 24 h of churn";
  options.paper_ref = "dynamic fault injection sweep (DESIGN.md, faults/ + resilience)";
  options.default_seed = 400;
  sim::Runner runner(argc, argv, options);
  runner.banner();
  const std::size_t threads = runner.threads();
  const std::uint64_t catalog_seed =
      static_cast<std::uint64_t>(runner.get("catalog-seed", 90L));

  struct SweepPoint {
    double mtbf_hours;
    double mttr_minutes;
  };
  const std::vector<SweepPoint> sweep{{6.0, 15.0},  {6.0, 30.0},  {12.0, 15.0},
                                      {12.0, 30.0}, {24.0, 15.0}, {24.0, 30.0}};

  ConsoleTable table({"MTBF (h)", "MTTR (min)", "availability", "p50 (ms)", "p99 (ms)",
                      "mean retries", "re-repl", "ground refills", "mean TTR (min)",
                      "sat fails", "cache crashes"});
  CsvWriter csv(runner.csv(), {"mtbf_hours", "mttr_minutes", "availability", "p50_ms",
                               "p99_ms", "mean_retries", "re_replicated",
                               "ground_refills", "mean_ttr_min", "satellite_failures",
                               "cache_crashes"});
  std::cout << "sweep threads: " << threads << "\n\n";

  // Each sweep point is a self-contained simulation (own network, fleet,
  // fault schedule, seeded RNGs), so points shard across the pool; index 6
  // is the acceptance rerun of point 1.  Rows are emitted in sweep order
  // after the barrier, keeping the CSV byte-identical to a serial run.
  const sim::World& world = runner.world();
  std::vector<ChurnRunResult> results(sweep.size() + 1);
  runner.pool().parallel_for(results.size(), [&](std::size_t i) {
    const auto& point = sweep[i < sweep.size() ? i : 1];
    results[i] = run_churn(world, Milliseconds::from_minutes(point.mtbf_hours * 60.0),
                           Milliseconds::from_minutes(point.mttr_minutes),
                           runner.seed(), catalog_seed);
  });

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r0 = results[i];
    runner.checksum().add(r0.availability);
    runner.checksum().add(r0.p50_ms);
    runner.checksum().add(r0.p99_ms);
    runner.checksum().add(r0.mean_retries);
  }
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& point = sweep[i];
    const auto& r = results[i];
    table.add_row({ConsoleTable::format_fixed(point.mtbf_hours, 0),
                   ConsoleTable::format_fixed(point.mttr_minutes, 0),
                   ConsoleTable::format_fixed(100.0 * r.availability, 2) + "%",
                   ConsoleTable::format_fixed(r.p50_ms, 1),
                   ConsoleTable::format_fixed(r.p99_ms, 1),
                   ConsoleTable::format_fixed(r.mean_retries, 3),
                   std::to_string(r.re_replicated), std::to_string(r.ground_refills),
                   ConsoleTable::format_fixed(r.mean_ttr_min, 1),
                   std::to_string(r.satellite_failures),
                   std::to_string(r.cache_crashes)});
    csv.row_numeric({point.mtbf_hours, point.mttr_minutes, r.availability, r.p50_ms,
                     r.p99_ms, r.mean_retries, static_cast<double>(r.re_replicated),
                     static_cast<double>(r.ground_refills), r.mean_ttr_min,
                     static_cast<double>(r.satellite_failures),
                     static_cast<double>(r.cache_crashes)});
  }
  std::cout << "\n";
  table.render(std::cout);

  // Acceptance + reproducibility: the harshest standard point (MTBF 6 h,
  // MTTR 30 min) must sustain >= 99% availability, and identical seeds must
  // reproduce the row bit-for-bit -- even when the two runs executed on
  // different pool workers.
  const auto& accept = results[1];
  const auto& rerun = results[sweep.size()];
  std::cout << "\nAcceptance (MTBF 6 h, MTTR 30 min): availability "
            << ConsoleTable::format_fixed(100.0 * accept.availability, 2) << "% "
            << (accept.availability >= 0.99 ? "[pass >= 99%]" : "[FAIL < 99%]")
            << ", seed-reproducible: " << (rerun == accept ? "yes" : "NO") << "\n";

  std::cout << "\nExpected shape: availability stays high across the sweep -- "
               "retries route around outages and the repair daemon rebuilds "
               "lost replicas -- while p99 and retry rate grow as MTBF falls "
               "and MTTR rises, and time-to-repair tracks the audit cadence "
               "plus the crash-recovery MTTR.\n";
  runner.record("availability_accept", accept.availability);
  return runner.finish(accept.availability >= 0.99 && rerun == accept);
}
