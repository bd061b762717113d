// Tests for the routing engine (net::SsspTree and lsn::IslNetwork's
// per-satellite routing table), the util::ThreadPool, and the
// deterministic parallel sweeps built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.hpp"
#include "des/random.hpp"
#include "lsn/starlink.hpp"
#include "measurement/aim.hpp"
#include "net/graph.hpp"
#include "net/routing_cache.hpp"
#include "sim/world.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/lookup.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spacecdn {
namespace {

constexpr Milliseconds kNow{0.0};

const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

/// Random connected graph: a spanning chain plus extra random edges.
net::Graph random_graph(des::Rng& rng, std::uint32_t nodes, std::uint32_t extra_edges) {
  net::Graph g(nodes);
  for (std::uint32_t v = 1; v < nodes; ++v) {
    g.add_undirected_edge(v - 1, v, Milliseconds{rng.uniform(1.0, 10.0)});
  }
  for (std::uint32_t e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    if (a == b) continue;
    g.add_undirected_edge(a, b, Milliseconds{rng.uniform(1.0, 10.0)});
  }
  return g;
}

// ------------------------------------------------------------- SsspTree

TEST(SsspTree, MatchesDirectDijkstraOnRandomGraphs) {
  des::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const net::Graph g = random_graph(rng, 40, 60);
    const auto src = static_cast<net::NodeId>(rng.uniform_int(0, 39));
    const net::SsspTree tree(g, src);
    const auto direct = net::shortest_distances(g, src);
    ASSERT_EQ(tree.distances().size(), direct.size());
    for (net::NodeId v = 0; v < direct.size(); ++v) {
      // Bit-identical, not approximately equal: the tree runs the exact
      // relaxation sequence shortest_distances runs.
      EXPECT_EQ(tree.distance(v).value(), direct[v].value()) << "trial " << trial;
    }
  }
}

TEST(SsspTree, PathReconstructionMatchesShortestPath) {
  des::Rng rng(12);
  const net::Graph g = random_graph(rng, 30, 40);
  const net::SsspTree tree(g, 0);
  for (net::NodeId v = 0; v < 30; ++v) {
    const auto direct = net::shortest_path(g, 0, v);
    ASSERT_TRUE(direct.has_value());
    const net::Path from_tree = tree.path_to(v);
    EXPECT_EQ(from_tree.nodes, direct->nodes);
    EXPECT_EQ(from_tree.total.value(), direct->total.value());
    EXPECT_EQ(tree.hops_to(v), direct->hop_count());
  }
}

TEST(SsspTree, UnreachableNodesThrowOnReconstruction) {
  net::Graph g(3);
  g.add_undirected_edge(0, 1, Milliseconds{1.0});  // node 2 isolated
  const net::SsspTree tree(g, 0);
  EXPECT_FALSE(tree.reachable(2));
  EXPECT_TRUE(tree.reachable(1));
  EXPECT_THROW((void)tree.hops_to(2), ConfigError);
  EXPECT_THROW((void)tree.path_to(2), ConfigError);
}

// ------------------------------------------- Lazily settled SsspTree
//
// SsspTree settles Dijkstra only as far as its queries reach.  Every answer
// must still equal the eager full run bit for bit -- distances and the
// tie-broken parents -- whatever order the queries come in.

constexpr std::array<const char*, 4> kPresets{"test-shell", "shell1", "starlink-4shell",
                                              "gen2-10k"};

/// The eager reference: shortest_distances' run (the same std::priority_queue
/// over the same CSR), recording parents the way shortest_path does, to the
/// end.
struct EagerTree {
  std::vector<Milliseconds> distances;
  std::vector<net::NodeId> parents;
};

EagerTree eager_tree(const net::Graph& g, net::NodeId source) {
  struct Entry {
    double dist;
    net::NodeId node;
    bool operator>(const Entry& o) const noexcept { return dist > o.dist; }
  };
  const net::CsrView csr = g.csr();
  std::vector<double> dist(g.node_count(), net::kUnreachable);
  EagerTree out;
  out.parents.assign(g.node_count(), source);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (std::uint32_t ei = csr.offsets[u]; ei < csr.offsets[u + 1]; ++ei) {
      const net::NodeId v = csr.targets[ei];
      const double nd = d + csr.weights[ei];
      if (nd < dist[v]) {
        dist[v] = nd;
        out.parents[v] = u;
        pq.push({nd, v});
      }
    }
  }
  for (const double d : dist) out.distances.emplace_back(d);
  return out;
}

/// The path the eager parents spell out (source first).
std::vector<net::NodeId> eager_path(const EagerTree& eager, net::NodeId source,
                                    net::NodeId target) {
  std::vector<net::NodeId> nodes;
  for (net::NodeId n = target;; n = eager.parents[n]) {
    nodes.push_back(n);
    if (n == source) break;
  }
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

/// Queries `count` targets of `tree` in a random order, one random query
/// kind each, and compares every answer with the eager run.  Returns the
/// number of mismatches; several threads may call it on one tree.
int query_randomly(const net::SsspTree& tree, const EagerTree& eager, des::Rng& rng,
                   std::size_t count) {
  const net::NodeId source = tree.source();
  const auto n = static_cast<std::uint32_t>(eager.distances.size());
  std::vector<net::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  int mismatches = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(count, n); ++i) {
    const net::NodeId v = order[i];
    const bool reachable = eager.distances[v].value() != net::kUnreachable;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        mismatches += tree.distance(v).value() != eager.distances[v].value();
        break;
      case 1:
        mismatches += tree.reachable(v) != reachable;
        break;
      case 2:
        if (reachable) {
          mismatches += tree.hops_to(v) + 1 != eager_path(eager, source, v).size();
        }
        break;
      default:
        if (reachable) {
          const net::Path path = tree.path_to(v);
          mismatches += path.nodes != eager_path(eager, source, v);
          mismatches += path.total.value() != eager.distances[v].value();
        }
        break;
    }
  }
  return mismatches;
}

/// Full comparison of a (possibly partly settled) tree with the eager run
/// and with net::shortest_distances / net::shortest_path.
void expect_matches_eager(const net::Graph& g, const net::SsspTree& tree,
                          const EagerTree& eager, des::Rng& rng,
                          const std::string& where) {
  const net::NodeId source = tree.source();
  EXPECT_EQ(query_randomly(tree, eager, rng, 48), 0) << where;
  const auto direct = net::shortest_distances(g, source);
  const auto& distances = tree.distances();  // finishes the run
  const auto& parents = tree.parents();
  ASSERT_EQ(distances.size(), direct.size()) << where;
  std::size_t parent_mismatches = 0;
  std::size_t distance_mismatches = 0;
  for (net::NodeId v = 0; v < direct.size(); ++v) {
    distance_mismatches += distances[v].value() != direct[v].value();
    distance_mismatches += distances[v].value() != eager.distances[v].value();
    parent_mismatches += parents[v] != eager.parents[v];
  }
  EXPECT_EQ(distance_mismatches, 0u) << where;
  EXPECT_EQ(parent_mismatches, 0u) << where;
  for (int i = 0; i < 8; ++i) {
    const auto v = static_cast<net::NodeId>(rng.uniform_int(0, direct.size() - 1));
    const auto path = net::shortest_path(g, source, v);
    ASSERT_EQ(path.has_value(), tree.reachable(v)) << where << " target " << v;
    if (!path) continue;
    EXPECT_EQ(tree.path_to(v).nodes, path->nodes) << where << " target " << v;
    EXPECT_EQ(tree.hops_to(v), path->hop_count()) << where << " target " << v;
  }
}

TEST(LazySsspTree, MatchesEagerDijkstraOnAllPresetsInRandomQueryOrders) {
  // Roughly one tree in ten on these shells has an equal-distance tie that
  // a different heap would break differently, so enough sources are drawn
  // per preset for a heap change to show in the parents.
  constexpr std::array<int, kPresets.size()> kSourcesPerRound{24, 12, 8, 4};
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    const char* preset = kPresets[p];
    lsn::StarlinkNetwork net(lsn::starlink_preset(preset));
    des::Rng rng(des::mix_seed(21, p));
    const auto sats = static_cast<std::uint32_t>(net.snapshot().size());
    std::vector<std::uint32_t> failed;
    for (const double t_s : {0.0, 15.0}) {
      if (t_s > 0.0) net.set_time(Milliseconds::from_seconds(t_s));
      for (int round = 0; round < 3; ++round) {
        // Seeded churn: fail a few satellites, recover the oldest failure.
        for (int f = 0; f < 3; ++f) {
          const auto sat = static_cast<std::uint32_t>(rng.uniform_int(0, sats - 1));
          if (net.isl().is_failed(sat)) continue;
          net.fail_satellite(sat);
          failed.push_back(sat);
        }
        if (round > 0 && !failed.empty()) {
          net.recover_satellite(failed.front());
          failed.erase(failed.begin());
        }
        const net::Graph& g = net.isl().graph();
        for (int i = 0; i < kSourcesPerRound[p]; ++i) {
          const auto source = static_cast<net::NodeId>(rng.uniform_int(0, sats - 1));
          const std::string where = std::string(preset) + " t=" + std::to_string(t_s) +
                                    "s round " + std::to_string(round) + " source " +
                                    std::to_string(source);
          const EagerTree eager = eager_tree(g, source);
          const net::SsspTree tree(g, source);
          expect_matches_eager(g, tree, eager, rng, where);
          if (i == 0) {
            // The cached tree, shared with every other query, answers the same.
            expect_matches_eager(g, *net.isl().sssp_from(source), eager, rng,
                                 where + " cached");
          }
        }
      }
    }
  }
}

TEST(LazySsspTree, PartlySettledTreeKeepsItsTopologyAcrossFail) {
  const lsn::StarlinkNetwork network;
  lsn::IslNetwork isl(network.constellation(), network.snapshot());
  const net::NodeId source = 10;
  const EagerTree before = eager_tree(isl.graph(), source);
  const auto tree = isl.sssp_from(source);
  // Settle just far enough for a 3-hop neighbour.
  const auto ring = isl.within_hops(source, 3);
  const net::NodeId near = ring->back().node;
  ASSERT_EQ(ring->back().hops, 3u);
  EXPECT_EQ(tree->path_to(near).nodes, eager_path(before, source, near));

  // Fail the first hop of that path: the live topology moves under the
  // partly settled tree, which must keep answering for the old one.
  isl.fail(eager_path(before, source, near)[1]);
  const EagerTree after = eager_tree(isl.graph(), source);
  ASSERT_NE(after.parents, before.parents);
  des::Rng rng(22);
  // `network`'s own ISL graph is the untouched pre-failure topology.
  expect_matches_eager(network.isl().graph(), *tree, before, rng, "held across fail");
  // The cache hands out a new tree for the new topology.
  const auto fresh = isl.sssp_from(source);
  EXPECT_NE(fresh.get(), tree.get());
  expect_matches_eager(isl.graph(), *fresh, after, rng, "after fail");
}

TEST(LazySsspTree, ConcurrentQueriesOnOneFreshTreeMatchEager) {
  // Four threads extend one fresh tree at once (run under TSan in CI); one
  // of them finishes the run midway, so completion races partial settles.
  const net::Graph& g = shell1().isl().graph();
  for (const net::NodeId source : {5u, 14u, 1500u}) {
    const EagerTree eager = eager_tree(g, source);
    const net::SsspTree tree(g, source);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        des::Rng rng(des::mix_seed(source, t));
        int bad = query_randomly(tree, eager, rng, 96);
        if (t == 1) {
          const auto& distances = tree.distances();
          for (net::NodeId v = 0; v < distances.size(); ++v) {
            bad += distances[v].value() != eager.distances[v].value();
            bad += tree.parents()[v] != eager.parents[v];
          }
        }
        bad += query_randomly(tree, eager, rng, 96);
        mismatches.fetch_add(bad, std::memory_order_relaxed);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "source " << source;
  }
}

// ------------------------------------------- IslNetwork routing engine

TEST(IslRoutingEngine, CachedLatenciesMatchDirectDijkstra) {
  const auto& isl = shell1().isl();
  for (const std::uint32_t src : {0u, 97u, 800u, 1583u}) {
    const auto cached = isl.latencies_from(src);
    const auto direct = net::shortest_distances(isl.graph(), src);
    ASSERT_EQ(cached.size(), direct.size());
    for (std::size_t v = 0; v < direct.size(); ++v) {
      EXPECT_EQ(cached[v].value(), direct[v].value());
    }
  }
}

TEST(IslRoutingEngine, FailRecoverCycleRestoresLatenciesBitIdentically) {
  const lsn::StarlinkNetwork network;
  lsn::IslNetwork isl(network.constellation(), network.snapshot());
  const auto before = isl.latencies_from(10);
  const auto epoch0 = isl.topology_epoch();

  isl.fail(11);
  EXPECT_EQ(isl.topology_epoch(), epoch0 + 1);
  const auto degraded = isl.latencies_from(10);
  const auto degraded_direct = net::shortest_distances(isl.graph(), 10);
  for (std::size_t v = 0; v < degraded.size(); ++v) {
    EXPECT_EQ(degraded[v].value(), degraded_direct[v].value());
  }
  EXPECT_FALSE(std::equal(before.begin(), before.end(), degraded.begin(),
                          [](Milliseconds a, Milliseconds b) {
                            return a.value() == b.value();
                          }));

  isl.recover(11);
  EXPECT_EQ(isl.topology_epoch(), epoch0 + 2);
  const auto after = isl.latencies_from(10);
  for (std::size_t v = 0; v < after.size(); ++v) {
    EXPECT_EQ(after[v].value(), before[v].value());
  }
}

TEST(IslRoutingEngine, AdvanceMatchesFreshlyConstructedNetwork) {
  // advance() rebinds the snapshot in place; a network that lived through
  // set_time must route identically to one built directly at that epoch.
  lsn::StarlinkNetwork survivor;
  survivor.set_time(Milliseconds::from_minutes(8.0));
  survivor.set_time(Milliseconds::from_minutes(16.0));

  lsn::StarlinkNetwork fresh;
  fresh.set_time(Milliseconds::from_minutes(16.0));

  for (const std::uint32_t src : {0u, 500u, 1200u}) {
    const auto a = survivor.isl().latencies_from(src);
    const auto b = fresh.isl().latencies_from(src);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t v = 0; v < a.size(); ++v) {
      EXPECT_EQ(a[v].value(), b[v].value());
    }
  }
}

TEST(IslRoutingEngine, RepeatedQueriesShareOneTreeAndOneRing) {
  const lsn::IslNetwork isl(shell1().constellation(), shell1().snapshot());
  const auto first = isl.sssp_from(3);
  const auto second = isl.sssp_from(3);
  EXPECT_EQ(first.get(), second.get());  // same memoised tree object
  const auto stats = isl.routing_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  const auto ring = isl.within_hops(3, 4);
  EXPECT_EQ(isl.within_hops(3, 4).get(), ring.get());
  // The slot keeps one budget: another one recomputes the ring, exactly.
  const auto other = isl.within_hops(3, 2);
  EXPECT_NE(other.get(), ring.get());
  EXPECT_EQ(other->size(), net::nodes_within_hops(isl.graph(), 3, 2).size());
  EXPECT_EQ(isl.within_hops(3, 2).get(), other.get());
  EXPECT_EQ(isl.routing_cache_stats().misses, 1u);  // rings do not touch the trees
}

TEST(IslRoutingEngine, TopologyChangesDropTreesAndRings) {
  lsn::IslNetwork isl(shell1().constellation(), shell1().snapshot());
  const std::array<std::function<void()>, 3> changes = {
      [&] { isl.fail(11); }, [&] { isl.recover(11); },
      [&] { isl.advance(shell1().snapshot()); }};
  for (std::size_t c = 0; c < changes.size(); ++c) {
    // Held across the change, so a fresh object cannot reuse the address.
    const auto tree = isl.sssp_from(10);
    const auto ring = isl.within_hops(10, 3);
    const auto before = isl.routing_cache_stats();
    changes[c]();
    const auto after = isl.routing_cache_stats();
    EXPECT_EQ(after.invalidations, before.invalidations + 1) << "change " << c;
    const auto tree_again = isl.sssp_from(10);
    EXPECT_NE(tree_again.get(), tree.get()) << "change " << c;
    EXPECT_EQ(isl.routing_cache_stats().misses, after.misses + 1) << "change " << c;
    EXPECT_EQ(isl.routing_cache_stats().hits, after.hits) << "change " << c;
    EXPECT_NE(isl.within_hops(10, 3).get(), ring.get()) << "change " << c;
  }
  EXPECT_EQ(isl.routing_cache_stats().invalidations, isl.topology_epoch());
}

TEST(IslRoutingEngine, ConcurrentReadersMatchDirectSearches) {
  // A fresh network, so the threads race on empty slots.
  const lsn::IslNetwork isl(shell1().constellation(), shell1().snapshot());
  constexpr std::uint32_t kSources = 24;
  constexpr std::uint32_t kHops = 3;
  std::vector<std::vector<Milliseconds>> distances(kSources);
  std::vector<std::vector<net::HopDistance>> rings(kSources);
  for (std::uint32_t s = 0; s < kSources; ++s) {
    distances[s] = net::shortest_distances(isl.graph(), s * 61);
    rings[s] = net::nodes_within_hops(isl.graph(), s * 61, kHops);
  }
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.parallel_for(480, [&](std::size_t i) {
    const auto s = static_cast<std::uint32_t>((i * 7) % kSources);
    int bad = 0;
    if (i % 2 == 0) {
      const auto tree = isl.sssp_from(s * 61);
      for (net::NodeId v = 0; v < distances[s].size(); v += 13) {
        bad += tree->distance(v).value() != distances[s][v].value();
      }
    } else {
      const auto ring = isl.within_hops(s * 61, kHops);
      bad += ring->size() != rings[s].size();
      for (std::size_t k = 0; k < std::min(ring->size(), rings[s].size()); ++k) {
        bad += (*ring)[k].node != rings[s][k].node || (*ring)[k].hops != rings[s][k].hops;
      }
    }
    mismatches.fetch_add(bad, std::memory_order_relaxed);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(IslRoutingEngine, OutOfRangeSatelliteThrows) {
  const auto& isl = shell1().isl();
  const auto n = static_cast<std::uint32_t>(isl.graph().node_count());
  EXPECT_THROW((void)isl.sssp_from(n), ConfigError);
  EXPECT_THROW((void)isl.within_hops(n, 1), ConfigError);
}

TEST(IslRoutingEngine, RepeatedQueriesHitTheCache) {
  lsn::StarlinkNetwork network;
  const auto& isl = network.isl();
  (void)isl.latencies_from(42);
  const auto before = isl.routing_cache_stats();
  (void)isl.path_latency(42, 100);
  (void)isl.path_latency(42, 1000);
  (void)isl.latencies_from(42);
  const auto after = isl.routing_cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 3);
}

// ------------------------------------------- Bent-pipe gateway staleness

TEST(BentPipeRouter, SurvivingRouterMatchesFreshAfterAdvance) {
  // Regression: the router's gateway-visibility lists were computed once at
  // construction; after set_time they referred to the previous epoch's
  // geometry.  A surviving router must route exactly like a fresh one.
  lsn::StarlinkNetwork survivor;
  (void)survivor.router().route_to_pop(data::location(data::city("Maputo")),
                                       data::country("MZ"));
  survivor.set_time(Milliseconds::from_minutes(16.0));

  lsn::StarlinkNetwork fresh;
  fresh.set_time(Milliseconds::from_minutes(16.0));

  for (const char* name : {"Maputo", "London", "Denver", "Tokyo"}) {
    const auto& city = data::city(name);
    const auto& country = data::country(city.country_code);
    const auto a = survivor.router().route_to_pop(data::location(city), country);
    const auto b = fresh.router().route_to_pop(data::location(city), country);
    ASSERT_EQ(a.has_value(), b.has_value()) << name;
    if (!a) continue;
    EXPECT_EQ(a->pop, b->pop) << name;
    EXPECT_EQ(a->isl_hops, b->isl_hops) << name;
    EXPECT_EQ(a->one_way_to_pop().value(), b->one_way_to_pop().value()) << name;
  }
}

// ------------------------------------------------- Lookup tie-breaking

TEST(Lookup, PicksLowestLatencyReplicaWithinMinimalHopRing) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  const std::uint32_t origin = 0;

  // Place the object on EVERY satellite exactly 2 hops out; the lookup must
  // return the cheapest of them, not the first one BFS emits.
  const auto ring = net.isl().within_hops(origin, 2);
  const auto tree = net.isl().sssp_from(origin);
  double best_latency = net::kUnreachable;
  std::uint32_t holders = 0;
  for (const auto& hd : *ring) {
    if (hd.hops != 2) continue;
    (void)fleet.cache(hd.node).insert(
        cdn::ContentItem{9, Megabytes{1.0}, data::Region::kEurope}, kNow);
    best_latency = std::min(best_latency, tree->distance(hd.node).value());
    ++holders;
  }
  ASSERT_GE(holders, 2u) << "need competing candidates for a tie-break test";

  const auto found = space::find_replica(net.isl(), fleet, origin, 9, 10);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->hops, 2u);
  EXPECT_EQ(found->isl_latency.value(), best_latency);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(visits.size(), [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 6);
  pool.parallel_for(0, [&](std::size_t) { sum.fetch_add(1000); });
  EXPECT_EQ(sum.load(), 6);  // zero-count sweep is a no-op
}

TEST(ThreadPool, SubmitAndWaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.thread_count(), 2u);
}

TEST(ThreadPool, ResolveThreadsHonoursExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);  // hardware concurrency
  EXPECT_THROW((void)ThreadPool::resolve_threads(-1), ConfigError);
}

TEST(MixSeed, DecorrelatesStreams) {
  EXPECT_NE(des::mix_seed(7, 0), des::mix_seed(7, 1));
  EXPECT_NE(des::mix_seed(7, 0), des::mix_seed(8, 0));
  EXPECT_EQ(des::mix_seed(7, 3), des::mix_seed(7, 3));  // pure function
}

// --------------------------------------- Deterministic parallel sweeps

TEST(ParallelSweep, AimCampaignSerialAndParallelAreBitIdentical) {
  measurement::AimConfig cfg;
  cfg.tests_per_city = 3;
  measurement::AimCampaign campaign(shell1(), cfg);
  const auto serial = campaign.run();

  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto parallel = campaign.run(pool);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].country_code, serial[i].country_code);
      EXPECT_EQ(parallel[i].city, serial[i].city);
      EXPECT_EQ(parallel[i].cdn_site, serial[i].cdn_site);
      EXPECT_EQ(parallel[i].idle_rtt.value(), serial[i].idle_rtt.value());
      EXPECT_EQ(parallel[i].loaded_rtt.value(), serial[i].loaded_rtt.value());
      EXPECT_EQ(parallel[i].download.value(), serial[i].download.value());
    }
  }
}

TEST(ParallelSweep, RepeatedRunsAreReproducible) {
  // The campaign is a pure function of its config: no hidden sequential RNG
  // state leaks between runs.
  measurement::AimConfig cfg;
  cfg.tests_per_city = 2;
  measurement::AimCampaign campaign(shell1(), cfg);
  const auto first = campaign.run_country(data::country("DE"));
  const auto second = campaign.run_country(data::country("DE"));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].idle_rtt.value(), second[i].idle_rtt.value());
  }
}

}  // namespace
}  // namespace spacecdn
