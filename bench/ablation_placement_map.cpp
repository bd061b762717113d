// Ablation: jump-hash placement map vs re-place-everything under churn.
//
// ROADMAP item 2's acceptance experiment.  Three placement policies run the
// ablation_churn 24 h MTBF x MTTR grid with the map-directed router and the
// delta-mode RepairDaemon:
//
//   baseline  membership-aware naive recompute (replicas evenly spaced over
//             the *live* satellite list) -- the re-place-everything policy;
//             every liveness flip renumbers nearly every assignment.
//   jump      jump consistent hashing over the full id space with
//             deterministic re-probing: one flip moves O(1/N) of objects.
//   jump-ec   jump placement of 4+2 erasure-coded fragments (one satellite
//             each); a read needs any 4 live fragments.
//
// Reported per point: fetch availability, p99 client latency, and the
// headline metric -- repair gigabytes moved over the 24 h cycle.  A quality
// table (hit distance to the holders a read needs, per-satellite load skew)
// covers the static half of placement quality, DAOS pl_bench style.
//
// Acceptance (CI-gated): at MTBF 6 h / MTTR 30 min the jump policy must move
// >= 5x fewer bytes than baseline at no-worse availability, and identical
// seeds must reproduce rows bit-for-bit across --threads.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "faults/schedule.hpp"
#include "sim/runner.hpp"
#include "spacecdn/resilience.hpp"
#include "spacecdn/router.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace spacecdn;

constexpr Milliseconds kHorizon = Milliseconds::from_minutes(24.0 * 60.0);
constexpr int kFetches = 2000;
constexpr std::uint64_t kCatalogSize = 200;
/// Larger synthetic id universe for the static quality metrics, so skew
/// estimates are not dominated by small-sample noise.
constexpr std::uint64_t kQualityCatalog = 20'000;
constexpr std::uint32_t kQualityProbes = 4000;

const std::vector<space::PlacementPolicy> kPolicies{
    space::PlacementPolicy::kBaseline, space::PlacementPolicy::kJump,
    space::PlacementPolicy::kJumpEc};

space::PlacementMapConfig map_config(space::PlacementPolicy policy,
                                     space::ReplicaDiversity diversity) {
  return {.policy = policy, .replicas = 4, .diversity = diversity, .ec = {4, 2}};
}

struct PlacementRunResult {
  double availability = 0.0;  // fraction of fetches that succeeded
  double p99_ms = 0.0;        // client-observed total latency
  double bytes_moved_gb = 0.0;  // repair traffic over the 24 h cycle
  std::uint64_t moved = 0;          // delta-repair re-positioned copies
  std::uint64_t evicted_stale = 0;  // stale copies dropped after moves
  std::uint64_t satellite_failures = 0;
  std::uint64_t cache_crashes = 0;

  friend bool operator==(const PlacementRunResult&, const PlacementRunResult&) = default;
};

/// One 24 h churn run with a placement map directing lookup and repair.
/// Mirrors ablation_churn's run_churn so the two benches stay comparable;
/// the differences are the map-directed router tier (ii), the
/// membership-synced ChurnController, and the delta-mode RepairDaemon.
PlacementRunResult run_placement(const sim::World& world, space::PlacementPolicy policy,
                                 space::ReplicaDiversity diversity, Milliseconds mtbf,
                                 Milliseconds mttr, std::uint64_t seed,
                                 std::uint64_t catalog_seed) {
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

  space::PlacementMap map(network.constellation(), map_config(policy, diversity));
  router.set_placement_map(&map);

  std::vector<cdn::ContentItem> items;
  items.reserve(catalog.size());
  for (cdn::ContentId id = 0; id < catalog.size(); ++id) {
    items.push_back(catalog.item(id));
    map.place(fleet, items.back(), Milliseconds{0.0});
  }

  // Same fault timeline shape as ablation_churn: the swept (MTBF, MTTR)
  // drives satellite outages and cache crashes; laser flaps and gateway
  // outages stay at fixed paper-scale background rates.
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
  controller.set_membership(&map.membership());
  space::RepairDaemon daemon(fleet, map, items, {});
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
  std::uint64_t total = 0, ok = 0;
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
      if (result.success) {
        ++ok;
        latency.add(result.total_latency.value());
      }
    });
  }

  sim.run();

  PlacementRunResult out;
  out.availability = total == 0 ? 0.0 : static_cast<double>(ok) / total;
  out.p99_ms = latency.empty() ? 0.0 : latency.quantile(0.99);
  out.bytes_moved_gb = daemon.totals().bytes_moved_mb / 1000.0;
  out.moved = daemon.totals().moved;
  out.evicted_stale = daemon.totals().evicted_stale;
  out.satellite_failures = controller.counters().satellite_failures;
  out.cache_crashes = controller.counters().cache_crashes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunnerOptions options;
  options.name = "ablation_placement_map";
  options.title = "Ablation: jump-hash placement vs re-place-everything under churn";
  options.paper_ref = "ROADMAP item 2 (DAOS-style placement maps; MSR replica "
                      "placement; Edge-of-the-Earth replication)";
  options.default_seed = 410;
  sim::Runner runner(argc, argv, options);
  runner.banner();
  const std::size_t threads = runner.threads();
  const std::uint64_t catalog_seed =
      static_cast<std::uint64_t>(runner.get("catalog-seed", 90L));
  const space::ReplicaDiversity diversity =
      space::parse_replica_diversity(runner.spec().replica_diversity);

  // --- static placement quality (full membership, no churn) ---
  const orbit::WalkerConstellation& constellation = runner.world().constellation();
  std::cout << "replica diversity: " << space::to_string(diversity) << "\n\n";
  ConsoleTable quality({"policy", "hops mean", "hops p99", "hops max", "load mean",
                        "load p99", "skew p99/mean"});
  for (const auto policy : kPolicies) {
    const space::PlacementMap map(constellation, map_config(policy, diversity));
    des::Rng probe_rng(des::mix_seed(runner.seed(), 999));
    const auto hops = map.analyze(kQualityProbes, kQualityCatalog, probe_rng);
    const auto skew = map.load_skew(kQualityCatalog);
    quality.add_row({std::string(space::to_string(policy)),
                     ConsoleTable::format_fixed(hops.mean_hops, 2),
                     ConsoleTable::format_fixed(hops.p99_hops, 1),
                     std::to_string(hops.max_hops),
                     ConsoleTable::format_fixed(skew.mean, 1),
                     ConsoleTable::format_fixed(skew.p99, 1),
                     ConsoleTable::format_fixed(skew.p99_over_mean(), 3)});
    runner.checksum().add(hops.mean_hops);
    runner.checksum().add(hops.p99_hops);
    runner.checksum().add(skew.p99_over_mean());
  }
  quality.render(std::cout);

  // --- 24 h churn grid (the ablation_churn MTBF x MTTR sweep) ---
  struct SweepPoint {
    double mtbf_hours;
    double mttr_minutes;
  };
  const std::vector<SweepPoint> sweep{{6.0, 15.0},  {6.0, 30.0},  {12.0, 15.0},
                                      {12.0, 30.0}, {24.0, 15.0}, {24.0, 30.0}};
  // Job layout: policy-major over the grid; the final job reruns
  // jump @ (6 h, 30 min) as the cross-worker reproducibility witness.
  const std::size_t jobs_per_policy = sweep.size();
  const std::size_t rerun_job = kPolicies.size() * jobs_per_policy;
  const std::size_t accept_job = 1 * jobs_per_policy + 1;  // jump @ {6, 30}

  std::cout << "\nsweep threads: " << threads << "\n\n";
  const sim::World& world = runner.world();
  std::vector<PlacementRunResult> results(rerun_job + 1);
  runner.pool().parallel_for(results.size(), [&](std::size_t i) {
    const std::size_t job = i < rerun_job ? i : accept_job;
    const auto policy = kPolicies[job / jobs_per_policy];
    const auto& point = sweep[job % jobs_per_policy];
    results[i] = run_placement(world, policy, diversity,
                               Milliseconds::from_minutes(point.mtbf_hours * 60.0),
                               Milliseconds::from_minutes(point.mttr_minutes),
                               runner.seed(), catalog_seed);
  });

  ConsoleTable table({"policy", "MTBF (h)", "MTTR (min)", "availability", "p99 (ms)",
                      "moved (GB)", "moved copies", "evicted", "sat fails",
                      "cache crashes"});
  CsvWriter csv(runner.csv(),
                {"policy", "mtbf_hours", "mttr_minutes", "availability", "p99_ms",
                 "bytes_moved_gb", "moved", "evicted_stale", "satellite_failures",
                 "cache_crashes"});
  for (std::size_t i = 0; i < rerun_job; ++i) {
    const auto policy = kPolicies[i / jobs_per_policy];
    const auto& point = sweep[i % jobs_per_policy];
    const auto& r = results[i];
    runner.checksum().add(r.availability);
    runner.checksum().add(r.p99_ms);
    runner.checksum().add(r.bytes_moved_gb);
    table.add_row({std::string(space::to_string(policy)),
                   ConsoleTable::format_fixed(point.mtbf_hours, 0),
                   ConsoleTable::format_fixed(point.mttr_minutes, 0),
                   ConsoleTable::format_fixed(100.0 * r.availability, 2) + "%",
                   ConsoleTable::format_fixed(r.p99_ms, 1),
                   ConsoleTable::format_fixed(r.bytes_moved_gb, 1),
                   std::to_string(r.moved), std::to_string(r.evicted_stale),
                   std::to_string(r.satellite_failures),
                   std::to_string(r.cache_crashes)});
    csv.row({std::string(space::to_string(policy)),
             ConsoleTable::format_fixed(point.mtbf_hours, 0),
             ConsoleTable::format_fixed(point.mttr_minutes, 0),
             std::to_string(r.availability), std::to_string(r.p99_ms),
             std::to_string(r.bytes_moved_gb), std::to_string(r.moved),
             std::to_string(r.evicted_stale), std::to_string(r.satellite_failures),
             std::to_string(r.cache_crashes)});
  }
  std::cout << "\n";
  table.render(std::cout);

  // Acceptance: at the harshest standard point (MTBF 6 h, MTTR 30 min) the
  // jump map must move >= 5x fewer bytes than re-place-everything at
  // no-worse availability, and identical seeds must reproduce the row
  // bit-for-bit even across different pool workers.
  const auto& baseline = results[0 * jobs_per_policy + 1];
  const auto& jump = results[accept_job];
  const auto& rerun = results[rerun_job];
  const double ratio =
      jump.bytes_moved_gb > 0.0 ? baseline.bytes_moved_gb / jump.bytes_moved_gb : 0.0;
  const bool moves_less = ratio >= 5.0;
  const bool no_worse = jump.availability >= baseline.availability;
  std::cout << "\nAcceptance (MTBF 6 h, MTTR 30 min): baseline moved "
            << ConsoleTable::format_fixed(baseline.bytes_moved_gb, 1) << " GB, jump "
            << ConsoleTable::format_fixed(jump.bytes_moved_gb, 1) << " GB ("
            << ConsoleTable::format_fixed(ratio, 1) << "x) "
            << (moves_less ? "[pass >= 5x]" : "[FAIL < 5x]") << "; availability "
            << ConsoleTable::format_fixed(100.0 * baseline.availability, 2) << "% -> "
            << ConsoleTable::format_fixed(100.0 * jump.availability, 2) << "% "
            << (no_worse ? "[pass no-worse]" : "[FAIL worse]")
            << "; seed-reproducible: " << (rerun == jump ? "yes" : "NO") << "\n";

  std::cout << "\nExpected shape: baseline repair volume scales with the churn "
               "rate times the whole catalog (every liveness flip renumbers "
               "the live list), while jump and jump-ec move only the failed "
               "satellites' share -- an order of magnitude less -- and jump-ec "
               "pays (k+m)/k storage instead of 4 full copies.\n";
  runner.record("bytes_moved_ratio", ratio);
  runner.record("availability_baseline", baseline.availability);
  runner.record("availability_jump", jump.availability);
  return runner.finish(moves_less && no_worse && rerun == jump);
}
