// Single-source shortest-path trees over a net::Graph.
//
// LEO topology is static between epoch ticks (ephemeris advances, fail and
// recover events), yet every simulated fetch used to re-run a full Dijkstra
// -- sometimes one per BFS candidate.  Hypatia and StarryNet precompute
// per-snapshot routing state for exactly this reason.  An SsspTree holds one
// source's distances and parents, settled only as far as the queries reach,
// so `path_latency`, `latencies_from`, and hop-count reconstruction all come
// from one Dijkstra.  lsn::IslNetwork memoises one tree per satellite in its
// routing table until the next topology change and reports the table's
// traffic as RoutingCacheStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
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

/// Routing-table traffic, cumulative over the owning network's lifetime.
struct RoutingCacheStats {
  std::uint64_t hits = 0;           // tree requests served from the table
  std::uint64_t misses = 0;         // trees seeded
  std::uint64_t invalidations = 0;  // topology changes that emptied the table

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

}  // namespace spacecdn::net
