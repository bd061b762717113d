// Stress and differential tests: randomized workloads checked against naive
// reference implementations, and event-storm robustness for the DES core.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <vector>

#include "cdn/cache.hpp"
#include "des/simulator.hpp"
#include "net/flow.hpp"
#include "net/graph.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

// A deliberately naive recency-ordered cache: a std::list searched
// linearly, counting stats the way the production caches count them.  With
// `refresh_on_use` a hit or a re-insert moves the object to the front (LRU);
// without it the list stays in insertion order (FIFO).
class ReferenceCache {
 public:
  ReferenceCache(double capacity_mb, bool refresh_on_use)
      : capacity_(capacity_mb), refresh_on_use_(refresh_on_use) {}

  bool access(cdn::ContentId id) {
    const auto it = find(id);
    if (it == items_.end()) {
      ++stats_.misses;
      return false;
    }
    if (refresh_on_use_) items_.splice(items_.begin(), items_, it);
    ++stats_.hits;
    return true;
  }

  bool insert(cdn::ContentId id, double mb) {
    if (const auto it = find(id); it != items_.end()) {
      if (refresh_on_use_) items_.splice(items_.begin(), items_, it);
      return true;
    }
    if (mb > capacity_) {
      ++stats_.rejected_oversized;
      return false;
    }
    while (used_ + mb > capacity_) {
      used_ -= items_.back().second;
      items_.pop_back();
      ++stats_.evictions;
    }
    items_.emplace_front(id, mb);
    used_ += mb;
    ++stats_.insertions;
    return true;
  }

  bool erase(cdn::ContentId id) {
    const auto it = find(id);
    if (it == items_.end()) return false;
    used_ -= it->second;
    items_.erase(it);
    return true;
  }

  void clear() {
    items_.clear();
    used_ = 0.0;
  }

  [[nodiscard]] std::set<cdn::ContentId> ids() const {
    std::set<cdn::ContentId> out;
    for (const auto& e : items_) out.insert(e.first);
    return out;
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] double used() const { return used_; }
  [[nodiscard]] const cdn::CacheStats& stats() const { return stats_; }

 private:
  std::list<std::pair<cdn::ContentId, double>>::iterator find(cdn::ContentId id) {
    return std::find_if(items_.begin(), items_.end(),
                        [&](const auto& e) { return e.first == id; });
  }

  double capacity_;
  bool refresh_on_use_;
  double used_ = 0.0;
  std::list<std::pair<cdn::ContentId, double>> items_;  // front = newest
  cdn::CacheStats stats_;
};

class ReferenceLru : public ReferenceCache {
 public:
  explicit ReferenceLru(double capacity_mb) : ReferenceCache(capacity_mb, true) {}
};

class ReferenceFifo : public ReferenceCache {
 public:
  explicit ReferenceFifo(double capacity_mb) : ReferenceCache(capacity_mb, false) {}
};

// Drives a production cache and its reference through one seeded stream of
// ~50k operations over 5,000 ids.  The ~1,100 objects that fit make the
// slot index regrow several times; erase-heavy phases (backward-shift
// deletion), a mid-stream clear() and ~1% oversized ids ride along.  Every
// operation must agree on its result, the object count, the exact `used`
// total and every stats counter; presence is compared id by id every 2,500
// operations.  With `with_reserve`, Cache::reserve is also called at points
// drawn from a second stream (so the operations stay the same): 0, below
// the current count, just above it, right after the clear() and up to
// 8,192 objects.  The reference model knows no reserve, so every check
// above must still hold.
template <typename CacheT, typename ReferenceT>
void expect_matches_reference(std::uint64_t seed, bool with_reserve = false) {
  constexpr double kCapacity = 4000.0;
  constexpr cdn::ContentId kIds = 5000;
  constexpr int kOps = 50000;
  des::Rng rng(seed);
  CacheT cache(Megabytes{kCapacity});
  ReferenceT reference(kCapacity);

  std::vector<double> sizes(kIds);  // stable size per id
  for (double& mb : sizes) {
    mb = rng.uniform(0.0, 1.0) < 0.01 ? kCapacity * 1.5 : rng.uniform(1.0, 6.0);
  }
  des::Rng reserve_rng(seed + 1);
  int reserves = 0;
  for (int op = 0; op < kOps; ++op) {
    if (with_reserve && (op == kOps / 2 + 1 || reserve_rng.uniform(0.0, 1.0) < 0.002)) {
      const std::uint64_t count = cache.object_count();
      const std::uint64_t targets[] = {0, count / 2, count + 1,
                                       reserve_rng.uniform_int(count, 8192)};
      cache.reserve(targets[reserve_rng.uniform_int(0, 3)]);
      ++reserves;
    }
    if (op == kOps / 2) {
      cache.clear();
      reference.clear();
    } else {
      // Blocks of 5,000 ops alternate fill-heavy and erase-heavy mixes.
      const bool erase_heavy = (op / 5000) % 2 == 1;
      const double insert_share = erase_heavy ? 0.2 : 0.6;
      const double erase_share = erase_heavy ? 0.6 : 0.05;
      const cdn::ContentId id = rng.uniform_int(0, kIds - 1);
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < insert_share) {
        ASSERT_EQ(cache.insert(cdn::ContentItem{id, Megabytes{sizes[id]},
                                                data::Region::kEurope},
                               Milliseconds{0.0}),
                  reference.insert(id, sizes[id]))
            << "op " << op;
      } else if (roll < insert_share + erase_share) {
        ASSERT_EQ(cache.erase(id), reference.erase(id)) << "op " << op;
      } else {
        ASSERT_EQ(cache.access(id, Milliseconds{0.0}), reference.access(id))
            << "op " << op;
      }
    }
    ASSERT_EQ(cache.object_count(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.used().value(), reference.used()) << "op " << op;
    const cdn::CacheStats& got = cache.stats();
    const cdn::CacheStats& want = reference.stats();
    ASSERT_EQ(got.hits, want.hits) << "op " << op;
    ASSERT_EQ(got.misses, want.misses) << "op " << op;
    ASSERT_EQ(got.insertions, want.insertions) << "op " << op;
    ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
    ASSERT_EQ(got.rejected_oversized, want.rejected_oversized) << "op " << op;
    if (op % 2500 == 0) {
      const std::set<cdn::ContentId> present = reference.ids();
      for (cdn::ContentId id = 0; id < kIds; ++id) {
        ASSERT_EQ(cache.contains(id), present.count(id) != 0)
            << "op " << op << " id " << id;
      }
    }
  }
  // The stream must have exercised what it claims to.
  EXPECT_GT(reference.stats().evictions, 1000u);
  EXPECT_GT(reference.stats().rejected_oversized, 0u);
  EXPECT_GT(reference.stats().hits, 1000u);
  if (with_reserve) {
    EXPECT_GT(reserves, 50);
  }
}

TEST(Differential, LruMatchesReferenceModel) {
  expect_matches_reference<cdn::LruCache, ReferenceLru>(101);
}

TEST(Differential, FifoMatchesReferenceModel) {
  expect_matches_reference<cdn::FifoCache, ReferenceFifo>(202);
}

TEST(Differential, ReserveIsInvisible) {
  expect_matches_reference<cdn::LruCache, ReferenceLru>(303, true);
  expect_matches_reference<cdn::FifoCache, ReferenceFifo>(404, true);
}

TEST(Differential, EveryPolicyAgreesOnPresenceAfterColdInsert) {
  // Whatever the eviction order, an object inserted into an empty cache is
  // present, and after capacity-1 more inserts of tiny objects it still is.
  for (const auto policy : {cdn::CachePolicy::kLru, cdn::CachePolicy::kLfu,
                            cdn::CachePolicy::kFifo}) {
    const auto cache = cdn::make_cache(policy, Megabytes{100.0});
    ASSERT_TRUE(cache->insert(cdn::ContentItem{0, Megabytes{1.0},
                                               data::Region::kAsia},
                              Milliseconds{0.0}));
    for (cdn::ContentId id = 1; id <= 50; ++id) {
      (void)cache->insert(cdn::ContentItem{id, Megabytes{1.0}, data::Region::kAsia},
                          Milliseconds{0.0});
    }
    EXPECT_TRUE(cache->contains(0)) << cdn::to_string(policy);
  }
}

TEST(Stress, SimulatorScheduleCancelStorm) {
  des::Simulator sim;
  des::Rng rng(102);
  std::vector<des::EventId> live;
  int fired = 0;
  int scheduled = 0;
  int cancelled = 0;

  // A self-perpetuating storm: events schedule and cancel other events.
  std::function<void()> spawn = [&] {
    ++fired;
    if (scheduled > 5000) return;
    const int children = static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < children; ++c) {
      ++scheduled;
      live.push_back(sim.schedule(Milliseconds{rng.uniform(0.1, 10.0)}, spawn));
    }
    if (!live.empty() && rng.chance(0.3)) {
      const std::size_t victim = rng.uniform_int(0, live.size() - 1);
      if (sim.cancel(live[victim])) ++cancelled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  };
  for (int seed_events = 0; seed_events < 10; ++seed_events) {
    ++scheduled;
    sim.schedule(Milliseconds{rng.uniform(0.0, 1.0)}, spawn);
  }
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(fired + cancelled, scheduled);
  EXPECT_GT(cancelled, 0);
}

TEST(Stress, SimulatorClockNeverRegresses) {
  des::Simulator sim;
  des::Rng rng(103);
  double last = -1.0;
  for (int i = 0; i < 500; ++i) {
    sim.schedule(Milliseconds{rng.uniform(0.0, 100.0)}, [&] {
      EXPECT_GE(sim.now().value(), last);
      last = sim.now().value();
    });
  }
  sim.run();
  EXPECT_GE(last, 0.0);
}

TEST(Stress, SharedLinkRandomArrivalsConserveBytes) {
  des::Simulator sim;
  net::SharedLink link(sim, Mbps{160.0});  // 20 MB/s
  des::Rng rng(104);

  double total_mb = 0.0;
  double weighted_completion = 0.0;  // sum of per-flow size
  double arrivals_span_ms = 0.0;
  for (int i = 0; i < 120; ++i) {
    const double at = rng.uniform(0.0, 3000.0);
    const double mb = rng.uniform(0.2, 8.0);
    arrivals_span_ms = std::max(arrivals_span_ms, at);
    total_mb += mb;
    sim.schedule(Milliseconds{at}, [&, mb] {
      (void)link.start_flow(Megabytes{mb}, [&](const net::FlowRecord& r) {
        weighted_completion += r.size.value();
        // No flow finishes before its bytes could possibly have been sent.
        EXPECT_GE(r.duration().value(), r.size.value() / 20.0 * 1000.0 - 1e-6);
      });
    });
  }
  sim.run();
  EXPECT_EQ(link.completed_flows(), 120u);
  EXPECT_NEAR(weighted_completion, total_mb, 1e-9);
  EXPECT_EQ(link.active_flows(), 0u);
  // The whole batch cannot finish before all bytes fit through the pipe.
  EXPECT_GE(sim.now().value(), total_mb / 20.0 * 1000.0 - 1e-6);
}

TEST(Stress, GraphReusedAfterClearEdges) {
  net::Graph g(100);
  des::Rng rng(105);
  for (int round = 0; round < 5; ++round) {
    g.clear_edges();
    for (int e = 0; e < 300; ++e) {
      const auto a = static_cast<net::NodeId>(rng.uniform_int(0, 99));
      const auto b = static_cast<net::NodeId>(rng.uniform_int(0, 99));
      if (a != b) g.add_undirected_edge(a, b, Milliseconds{rng.uniform(0.5, 5.0)});
    }
    const auto dist = net::shortest_distances(g, 0);
    EXPECT_EQ(dist.size(), 100u);
    EXPECT_DOUBLE_EQ(dist[0].value(), 0.0);
  }
}

TEST(Stress, DijkstraHopBfsConsistency) {
  // On a unit-weight graph, Dijkstra distance equals BFS hop count.
  des::Rng rng(106);
  net::Graph g(60);
  for (int e = 0; e < 150; ++e) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, 59));
    const auto b = static_cast<net::NodeId>(rng.uniform_int(0, 59));
    if (a != b) g.add_undirected_edge(a, b, Milliseconds{1.0});
  }
  const auto dist = net::shortest_distances(g, 7);
  for (const auto& hd : net::nodes_within_hops(g, 7, 60)) {
    EXPECT_DOUBLE_EQ(dist[hd.node].value(), static_cast<double>(hd.hops));
  }
}

}  // namespace
}  // namespace spacecdn
