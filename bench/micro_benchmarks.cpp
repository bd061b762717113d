// Hot-path microbenchmarks (google-benchmark): propagation, visibility,
// routing, caching, sampling.  These guard the simulator's throughput --
// the AIM campaign issues ~10^5 route computations per run.
#include <benchmark/benchmark.h>

#include "cdn/cache.hpp"
#include "data/datasets.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "des/stats.hpp"
#include "geo/batch.hpp"
#include "geo/distance.hpp"
#include "load/capacity.hpp"
#include "measurement/aim.hpp"
#include "net/graph.hpp"
#include "net/routing_cache.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/visibility_index.hpp"
#include "orbit/walker.hpp"
#include "sim/world.hpp"
#include "spacecdn/lookup.hpp"
#include "spacecdn/placement_map.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spacecdn;

// Every case shares the process-wide default-scenario world, so the Shell-1
// constellation and its ISL graph are built exactly once.
const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

void BM_GreatCircleDistance(benchmark::State& state) {
  const geo::GeoPoint a{52.52, 13.40, 0.0};
  const geo::GeoPoint b{-26.20, 28.05, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::great_circle_distance(a, b));
  }
}
BENCHMARK(BM_GreatCircleDistance);

void BM_ConstellationPropagation(benchmark::State& state) {
  const orbit::WalkerConstellation& shell = sim::shared_world().constellation();
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shell.positions_ecef(Milliseconds{t}));
    t += 1000.0;
  }
  state.SetItemsProcessed(state.iterations() * shell.size());
}
BENCHMARK(BM_ConstellationPropagation);

void BM_ServingSatelliteSelection(benchmark::State& state) {
  const auto& snapshot = shell1().snapshot();
  const geo::GeoPoint client{48.86, 2.35, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.serving_satellite(client, 25.0));
  }
}
BENCHMARK(BM_ServingSatelliteSelection);

// The 10k-satellite cases build their own constellation (gen2-10k preset)
// once; the snapshot carries the spatial-grid visibility index.
const orbit::WalkerConstellation& gen2_10k() {
  static const orbit::WalkerConstellation constellation(
      orbit::multi_shell_preset("gen2-10k"));
  return constellation;
}

const orbit::EphemerisSnapshot& gen2_10k_snapshot() {
  static const orbit::EphemerisSnapshot snapshot(gen2_10k(), Milliseconds{0.0});
  return snapshot;
}

void BM_ServingSatellite(benchmark::State& state) {
  const auto& snapshot = gen2_10k_snapshot();
  const geo::GeoPoint client{48.86, 2.35, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.serving_satellite(client, 25.0));
  }
}
BENCHMARK(BM_ServingSatellite);

void BM_ServingSatelliteScan(benchmark::State& state) {
  const auto& snapshot = gen2_10k_snapshot();
  const geo::GeoPoint client{48.86, 2.35, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.serving_satellite_scan(client, 25.0));
  }
}
BENCHMARK(BM_ServingSatelliteScan);

void BM_VisibilityIndexBuild(benchmark::State& state) {
  const auto& constellation = gen2_10k();
  std::vector<double> x, y, z;
  constellation.positions_ecef_into(Milliseconds{0.0}, x, y, z);
  orbit::VisibilityIndex index;
  for (auto _ : state) {
    index.rebuild(x, y, z);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * constellation.size());
}
BENCHMARK(BM_VisibilityIndexBuild);

void BM_IslDijkstraFullSweep(benchmark::State& state) {
  const auto& isl = shell1().isl();
  std::uint32_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isl.latencies_from(src));
    src = (src + 97) % 1584;
  }
}
BENCHMARK(BM_IslDijkstraFullSweep);

// The BFS itself: IslNetwork::within_hops would answer from its ring memo.
void BM_BfsWithinHops(benchmark::State& state) {
  const net::Graph& graph = shell1().isl().graph();
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::nodes_within_hops(graph, 100, hops));
  }
}
BENCHMARK(BM_BfsWithinHops)->Arg(3)->Arg(5)->Arg(10);

// Serving selection plus a memoised (serving, PoP) leg.
void BM_BentPipeRouteMemoHit(benchmark::State& state) {
  const auto& net = shell1();
  const geo::GeoPoint maputo = data::location(data::city("Maputo"));
  const auto& mz = data::country("MZ");
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.router().route_to_pop(maputo, mz));
  }
}
BENCHMARK(BM_BentPipeRouteMemoHit);

// The full gateway scan: flipping a gateway the route does not use
// invalidates the memoised leg every iteration without changing the answer.
void BM_BentPipeRouteRecompute(benchmark::State& state) {
  static lsn::StarlinkNetwork net;
  const geo::GeoPoint maputo = data::location(data::city("Maputo"));
  const auto& mz = data::country("MZ");
  const auto route = net.router().route_to_pop(maputo, mz);
  if (!route) {
    state.SkipWithError("Maputo has no bent-pipe route");
    return;
  }
  const std::size_t flipped = (route->gateway + 1) % net.ground().gateway_count();
  for (auto _ : state) {
    net.set_gateway_failed(flipped, !net.ground().gateway_failed(flipped));
    benchmark::DoNotOptimize(net.router().route_to_pop(maputo, mz));
  }
  net.set_gateway_failed(flipped, false);
}
BENCHMARK(BM_BentPipeRouteRecompute);

void BM_LruCacheWorkload(benchmark::State& state) {
  cdn::LruCache cache(Megabytes{1000.0});
  des::Rng rng(1);
  const cdn::ContentItem item{0, Megabytes{2.0}, data::Region::kEurope};
  for (auto _ : state) {
    const cdn::ContentId id = rng.uniform_int(0, 2000);
    if (!cache.access(id, Milliseconds{0.0})) {
      cdn::ContentItem it = item;
      it.id = id;
      benchmark::DoNotOptimize(cache.insert(it, Milliseconds{0.0}));
    }
  }
}
BENCHMARK(BM_LruCacheWorkload);

void BM_ZipfSample(benchmark::State& state) {
  const des::ZipfDistribution zipf(100000, 0.9);
  des::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_ReplicaLookup(benchmark::State& state) {
  const auto& net = shell1();
  static space::SatelliteFleet fleet(net.constellation().size(),
                                     space::FleetConfig{Megabytes{1e6},
                                                        cdn::CachePolicy::kLru});
  static bool placed = [] {
    for (std::uint32_t sat = 0; sat < fleet.size(); sat += 18) {
      (void)fleet.cache(sat).insert(
          cdn::ContentItem{1, Megabytes{1.0}, data::Region::kEurope}, Milliseconds{0.0});
    }
    return true;
  }();
  benchmark::DoNotOptimize(placed);
  std::uint32_t origin = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space::find_replica(net.isl(), fleet, origin, 1, 10));
    origin = (origin + 31) % fleet.size();
  }
}
BENCHMARK(BM_ReplicaLookup);

// --- Routing-engine cache: uncached Dijkstra vs epoch-cached SSSP trees ---
//
// The acceptance bar for the routing engine is >= 5x throughput on repeated
// path_latency / latencies_from calls within an epoch; compare these two
// against BM_SsspUncached.

void BM_SsspUncached(benchmark::State& state) {
  // Ground truth cost: one full Dijkstra per call, no memoization.
  const auto& graph = shell1().isl().graph();
  std::uint32_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::shortest_distances(graph, src));
    src = (src + 97) % 1584;
  }
}
BENCHMARK(BM_SsspUncached);

void BM_LatenciesFromCached(benchmark::State& state) {
  // Same rotation as BM_SsspUncached, but through the routing table: after
  // one warm-up lap every call is a shared-lock hit plus a vector copy.
  const auto& isl = shell1().isl();
  std::uint32_t src = 0;
  // The stride-97 rotation visits every source (gcd(97, 1584) == 1), so warm
  // the whole constellation once; the table has one slot per satellite.
  static const bool warmed = [&isl] {
    for (std::uint32_t s = 0; s < 1584; ++s) (void)isl.latencies_from(s);
    return true;
  }();
  benchmark::DoNotOptimize(warmed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isl.latencies_from(src));
    src = (src + 97) % 1584;
  }
}
BENCHMARK(BM_LatenciesFromCached);

void BM_PathLatencyCached(benchmark::State& state) {
  // Point queries against a warm tree: the pre-cache code ran a full
  // shortest_path per call; now it is one table hit plus an array read.
  const auto& isl = shell1().isl();
  (void)isl.path_latency(42, 1000);
  std::uint32_t dst = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isl.path_latency(42, dst));
    dst = (dst + 131) % 1584;
  }
}
BENCHMARK(BM_PathLatencyCached);

void BM_SsspTreeHopReconstruction(benchmark::State& state) {
  // hops_to / path_to walk the cached parent array instead of re-running a
  // BFS or Dijkstra per query.
  const auto tree = shell1().isl().sssp_from(7);
  std::uint32_t dst = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->hops_to(dst));
    dst = (dst + 131) % 1584;
  }
}
BENCHMARK(BM_SsspTreeHopReconstruction);

void BM_SsspTreeNearQuery(benchmark::State& state) {
  // A routing-table miss answered a few hops out: seed a fresh tree, then
  // path_to a 3-hop neighbour.  The tree settles only that far, not the
  // whole constellation.
  const auto& isl = shell1().isl();
  const net::NodeId near = isl.within_hops(7, 3)->back().node;
  for (auto _ : state) {
    const net::SsspTree tree(isl.graph(), 7);
    benchmark::DoNotOptimize(tree.path_to(near));
  }
}
BENCHMARK(BM_SsspTreeNearQuery);

void BM_ParallelAimSweep(benchmark::State& state) {
  // Wall-clock of the full AIM campaign sharded over N workers; the serial
  // baseline is Arg(1).  Records the parallel-sweep speedup trajectory
  // (BENCH_*.json) -- on a many-core host Arg(4) should be >= 2x Arg(1).
  const auto& net = shell1();
  measurement::AimConfig cfg;
  cfg.tests_per_city = 3;
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    measurement::AimCampaign campaign(net, cfg);
    benchmark::DoNotOptimize(campaign.run(pool));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelAimSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SimulatorEventChurn(benchmark::State& state) {
  // Steady-state schedule/dispatch throughput of the des core.  The slot
  // pool recycles fired events through a free list, so this loop should be
  // allocation-free after the first lap; open-loop load sweeps push millions
  // of events through exactly this path.
  des::Simulator sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule(Milliseconds{static_cast<double>(i % 7)}, [&fired] { ++fired; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_LoadLinkQueue(benchmark::State& state) {
  // One saturated bottleneck queue: submit a burst, drain, repeat.  Guards
  // the per-transfer overhead of the load engine's queueing layer.
  des::Simulator sim;
  load::LinkQueue queue(sim, Mbps{1000.0});
  std::uint64_t done = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.submit(Megabytes{1.0}, static_cast<std::uint64_t>(i % 8),
                   [&done](Milliseconds) { ++done; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(done);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LoadLinkQueue);

void BM_SlantRangeBatch(benchmark::State& state) {
  // Batched SoA slant-range kernel over one full constellation snapshot --
  // the vectorizable inner loop of visibility scans.
  const orbit::EphemerisSnapshot& snapshot = shell1().snapshot();
  const geo::Ecef ground = geo::to_ecef_spherical(geo::GeoPoint{48.8566, 2.3522});
  std::vector<double> out(snapshot.size());
  for (auto _ : state) {
    geo::slant_ranges_km(ground, snapshot.xs(), snapshot.ys(), snapshot.zs(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(snapshot.size()));
}
BENCHMARK(BM_SlantRangeBatch);

void BM_DijkstraCsr(benchmark::State& state) {
  // Single-source Dijkstra over the flattened CSR adjacency (the full run
  // of which an SsspTree settles a prefix); rotates sources to defeat
  // caching.
  const net::Graph& graph = shell1().isl().graph();
  std::uint32_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::shortest_distances(graph, src));
    src = (src + 37) % static_cast<std::uint32_t>(graph.node_count());
  }
}
BENCHMARK(BM_DijkstraCsr);

void BM_AimCountryCampaign(benchmark::State& state) {
  const auto& net = shell1();
  measurement::AimConfig cfg;
  cfg.tests_per_city = 5;
  for (auto _ : state) {
    measurement::AimCampaign campaign(net, cfg);
    benchmark::DoNotOptimize(campaign.run_country(data::country("DE")));
  }
}
BENCHMARK(BM_AimCountryCampaign);

// --- Jump-hash placement map: per-object lookup and churn rebalance ---
//
// BM_PlacementMapLookup is the router's tier-(ii) holder resolution (one
// replicas() call); BM_PlacementMapRebalance is the delta a repair scan
// computes per object after one membership flip (replicas under the old and
// the new snapshot).

void BM_PlacementMapLookup(benchmark::State& state) {
  const orbit::WalkerConstellation& shell = sim::shared_world().constellation();
  const space::PlacementMap map(shell, {});
  cdn::ContentId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.replicas(id));
    id = (id + 1) % 10'000;
  }
}
BENCHMARK(BM_PlacementMapLookup);

void BM_PlacementMapRebalance(benchmark::State& state) {
  const orbit::WalkerConstellation& shell = sim::shared_world().constellation();
  space::PlacementMap map(shell, {});
  const std::vector<bool> before = map.membership().bitmap();
  (void)map.membership().set_live(417, false);
  cdn::ContentId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.replicas_under(id, before));
    benchmark::DoNotOptimize(map.replicas(id));
    id = (id + 1) % 10'000;
  }
}
BENCHMARK(BM_PlacementMapRebalance);

void BM_SampleSetTrailingP99(benchmark::State& state) {
  // The load engine's auto hedge delay: a completion p99 re-read every 256
  // completions, here over one 50k-sample stream per iteration.  With the
  // incremental sort each re-read merges 256 new samples into the sorted
  // copy instead of re-sorting all of it.
  constexpr std::size_t kSamples = 50'000;
  constexpr std::size_t kEvery = 256;
  des::Rng rng(17);
  std::vector<double> latencies(kSamples);
  for (double& x : latencies) x = rng.lognormal_median(40.0, 0.6);
  for (auto _ : state) {
    des::SampleSet set;
    double p99 = 0.0;
    for (std::size_t i = 0; i < kSamples; ++i) {
      set.add(latencies[i]);
      if ((i + 1) % kEvery == 0) p99 = set.quantile(0.99);
    }
    benchmark::DoNotOptimize(p99);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_SampleSetTrailingP99);

void BM_RngSeedAndFirstDraws(benchmark::State& state) {
  // One synthetic user's stream as sim::synthesize_users uses it: seeded
  // from mix_seed, then two uniform draws for the scatter.
  std::uint64_t user = 0;
  for (auto _ : state) {
    des::Rng rng(des::mix_seed(7, user++));
    benchmark::DoNotOptimize(rng.uniform(0.0, 1.0));
    benchmark::DoNotOptimize(rng.uniform(0.0, 1.0));
  }
}
BENCHMARK(BM_RngSeedAndFirstDraws);

}  // namespace

BENCHMARK_MAIN();
