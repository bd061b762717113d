// Epoch-cached single-source shortest-path routing engine.
//
// LEO topology is static between epoch ticks (ephemeris advances, fail and
// recover events), yet every simulated fetch used to re-run a full Dijkstra
// -- sometimes one per BFS candidate.  Hypatia and StarryNet precompute
// per-snapshot routing state for exactly this reason.  RoutingCache memoises
// SSSP trees (distances + parent arrays) per source node, so `path_latency`,
// `latencies_from`, and hop-count reconstruction all come from one cached
// Dijkstra, settled only as far as the queries reach.  Entries are keyed by
// a topology epoch that the graph owner bumps on every mutation; stale trees
// are discarded lazily and an LRU bound caps the number of cached sources.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"

namespace spacecdn::net {

/// One single-source shortest-path tree, settled lazily.
///
/// The constructor only seeds the Dijkstra heap.  Each query pops and
/// relaxes until its target is final, so the answered part of the tree is
/// always a prefix of the eager run (net::shortest_distances): the same
/// push_heap/pop_heap sequence over the same CSR edge order, hence the same
/// distances and the same tie-broken parents, bit for bit.  A node is final
/// once its distance is <= the heap minimum (or the heap is empty): every
/// later relaxation offers a key >= that minimum, and a parent changes only
/// on a strict improvement.  distances()/parents() finish the run.
///
/// The tree holds the CSR snapshot it started on, so a partly settled tree
/// still answers for that topology after the graph is mutated.  Queries are
/// thread-safe: extending the run takes a per-tree mutex, and once the run
/// is complete reads skip the lock.  `parent[v]` is the predecessor of `v`
/// on the shortest path (== `source` for the source itself and for
/// unreachable nodes, matching shortest_path()'s convention).
class SsspTree {
 public:
  SsspTree(const Graph& graph, NodeId source);

  [[nodiscard]] NodeId source() const noexcept { return source_; }

  [[nodiscard]] Milliseconds distance(NodeId target) const {
    settle(target);
    return distances_[target];
  }
  [[nodiscard]] bool reachable(NodeId target) const {
    return distance(target).value() != kUnreachable;
  }
  /// Every distance; finishes the run first.
  [[nodiscard]] const std::vector<Milliseconds>& distances() const {
    finish();
    return distances_;
  }
  /// Every parent; finishes the run first.
  [[nodiscard]] const std::vector<NodeId>& parents() const {
    finish();
    return parents_;
  }

  /// Hop count of the shortest path source -> target; 0 for the source
  /// itself.  @throws spacecdn::ConfigError when target is unreachable.
  [[nodiscard]] std::uint32_t hops_to(NodeId target) const;

  /// Node sequence of the shortest path (source first), reconstructed from
  /// the parent array.  @throws spacecdn::ConfigError when unreachable.
  [[nodiscard]] Path path_to(NodeId target) const;

 private:
  struct HeapEntry {
    double dist;
    NodeId node;
    bool operator>(const HeapEntry& o) const noexcept { return dist > o.dist; }
  };

  /// Runs Dijkstra until `target` is final.  Afterwards the distance and
  /// parent of `target` and of every node on its path never change again,
  /// so callers read them without the lock.
  void settle(NodeId target) const;
  /// Runs Dijkstra to completion.
  void finish() const;
  /// run()'s target meaning "no target": drain the heap.
  static constexpr NodeId kAllNodes = std::numeric_limits<NodeId>::max();

  /// Pops and relaxes until `target` is final, or to the end for kAllNodes;
  /// caller holds mutex_.  Marks the tree complete and frees the heap once
  /// it empties.
  void run(NodeId target) const;

  std::shared_ptr<const CsrSnapshot> csr_;
  NodeId source_;
  mutable std::mutex mutex_;
  mutable std::atomic<bool> complete_{false};
  mutable std::vector<Milliseconds> distances_;
  mutable std::vector<NodeId> parents_;
  mutable std::vector<HeapEntry> heap_;  // min-heap under std::greater<>
};

/// Cache statistics (cumulative over the cache's lifetime).
struct RoutingCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      // LRU-bound evictions
  std::uint64_t invalidations = 0;  // epoch bumps

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Epoch-keyed, LRU-bounded memoisation of SSSP trees over one graph.
///
/// Thread-safe: lookups take a shared lock, misses upgrade to exclusive to
/// insert.  Trees are handed out as shared_ptr so a reader keeps its tree
/// alive even if a concurrent miss LRU-evicts the entry.  The graph itself
/// must not be mutated concurrently with queries; owners bump the epoch
/// (invalidate()) under the same external discipline they mutate the graph.
class RoutingCache {
 public:
  /// @param graph        graph to memoise over (must outlive the cache).
  /// @param max_sources  LRU bound on distinct cached source nodes.
  explicit RoutingCache(const Graph& graph, std::size_t max_sources = 256);

  /// The cached SSSP tree from `source`, seeding a fresh one on a miss.
  [[nodiscard]] std::shared_ptr<const SsspTree> tree(NodeId source) const;

  /// Drops every cached tree by bumping the epoch (O(1); entries are
  /// reclaimed lazily).  Call after any graph mutation.
  void invalidate() noexcept;

  [[nodiscard]] std::uint64_t epoch() const noexcept;
  [[nodiscard]] std::size_t cached_sources() const;
  [[nodiscard]] std::size_t max_sources() const noexcept { return max_sources_; }
  [[nodiscard]] RoutingCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    std::shared_ptr<const SsspTree> tree;
    std::list<NodeId>::iterator lru_it;  // position in lru_ (front = hottest)
  };

  const Graph* graph_;
  std::size_t max_sources_;
  mutable std::shared_mutex mutex_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::unordered_map<NodeId, Entry> entries_;
  mutable std::list<NodeId> lru_;
  // Atomics: hits are counted under the shared lock, where a plain counter
  // would be a data race between concurrent readers.
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace spacecdn::net
