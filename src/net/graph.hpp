// Weighted graph and shortest-path routing.
//
// Nodes are dense integer ids (satellites, ground stations, PoPs, CDN sites
// all map onto them).  Edge weights are one-way latencies in milliseconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace spacecdn::net {

using NodeId = std::uint32_t;

/// One outgoing adjacency.
struct Edge {
  NodeId to = 0;
  Milliseconds weight{0.0};
};

/// A routing result: total latency plus the node sequence (src first).
struct Path {
  Milliseconds total{0.0};
  std::vector<NodeId> nodes;

  [[nodiscard]] std::size_t hop_count() const noexcept {
    return nodes.empty() ? 0 : nodes.size() - 1;
  }
};

/// Read-only flattened adjacency: three parallel arrays in compressed
/// sparse row layout.  Node u's outgoing edges occupy indices
/// [offsets[u], offsets[u+1]), in exactly the order add_edge created them,
/// so algorithms walking the view relax edges in the same order as the
/// original adjacency-list loops -- bit-identical results, better locality.
struct CsrView {
  std::span<const std::uint32_t> offsets;  // node_count()+1 entries
  std::span<const NodeId> targets;
  std::span<const double> weights;  // milliseconds, raw doubles for the hot loop
};

/// One immutable CSR snapshot of a graph's topology.  A mutation makes the
/// graph build a fresh snapshot on its next query instead of overwriting
/// this one, so a holder (a partly settled SsspTree) keeps walking the
/// topology it started on.
struct CsrSnapshot {
  std::vector<std::uint32_t> offsets;
  std::vector<NodeId> targets;
  std::vector<double> weights;

  [[nodiscard]] CsrView view() const noexcept { return {offsets, targets, weights}; }
};

/// Adjacency-list digraph with latency weights and a lazily-maintained CSR
/// mirror for query hot paths.
class Graph {
 public:
  Graph() = default;
  /// Pre-creates `n` nodes (ids 0..n-1).
  explicit Graph(std::size_t n) : adjacency_(n) {}

  // Copies/moves carry the adjacency lists and leave the CSR mirror dirty;
  // it is a cache, rebuilt on the next query.  (Spelled out because the
  // mutex/atomic members are not copyable.)
  Graph(const Graph& other) : adjacency_(other.adjacency_), edges_(other.edges_) {}
  Graph& operator=(const Graph& other) {
    if (this != &other) {
      adjacency_ = other.adjacency_;
      edges_ = other.edges_;
      csr_dirty_.store(true, std::memory_order_release);
    }
    return *this;
  }
  Graph(Graph&& other) noexcept
      : adjacency_(std::move(other.adjacency_)), edges_(other.edges_) {}
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) {
      adjacency_ = std::move(other.adjacency_);
      edges_ = other.edges_;
      csr_dirty_.store(true, std::memory_order_release);
    }
    return *this;
  }

  /// Adds a node; returns its id.
  NodeId add_node();

  [[nodiscard]] std::size_t node_count() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Adds a directed edge.  @throws spacecdn::ConfigError on bad ids or
  /// negative weight.
  void add_edge(NodeId from, NodeId to, Milliseconds weight);

  /// Adds edges in both directions with the same weight.
  void add_undirected_edge(NodeId a, NodeId b, Milliseconds weight);

  /// Removes every from->to edge; returns how many were removed.  Used by
  /// incremental failure injection (lsn::IslNetwork::fail/recover), which
  /// surgically detaches a node instead of rebuilding the whole topology.
  std::size_t remove_edge(NodeId from, NodeId to);

  /// Removes a<->b in both directions; returns how many edges were removed.
  std::size_t remove_undirected_edge(NodeId a, NodeId b);

  [[nodiscard]] std::span<const Edge> neighbors(NodeId node) const;

  /// Drops all edges but keeps the nodes (used when the topology is
  /// recomputed every ephemeris step).
  void clear_edges() noexcept;

  /// The CSR mirror, rebuilding it first if any mutation happened since the
  /// last query.  The returned spans stay valid until the next mutation.
  ///
  /// Thread-safe against concurrent csr() calls (double-checked rebuild
  /// under an internal mutex), matching lsn::IslNetwork's routing-table
  /// discipline: many concurrent readers, never a reader concurrent with a
  /// mutation.
  [[nodiscard]] CsrView csr() const { return csr_snapshot()->view(); }

  /// The current CSR snapshot itself (rebuilt like csr()); it stays valid
  /// and unchanged for as long as the caller holds it, across mutations.
  [[nodiscard]] std::shared_ptr<const CsrSnapshot> csr_snapshot() const;

 private:
  /// Flattens adjacency_ into a fresh snapshot in csr_; caller holds
  /// csr_mutex_.
  void rebuild_csr() const;

  std::vector<std::vector<Edge>> adjacency_;
  std::size_t edges_ = 0;

  // CSR mirror: a cache of adjacency_, rebuilt lazily.  `mutable` + the
  // dirty-flag dance lets const query paths (shortest_distances, SsspTree
  // seeds from parallel sweeps) share one rebuild without a lock on every
  // query: the release store of `false` publishes the snapshot, the
  // acquire load on the fast path synchronises with it.
  mutable std::mutex csr_mutex_;
  mutable std::atomic<bool> csr_dirty_{true};
  mutable std::shared_ptr<const CsrSnapshot> csr_;
};

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Single-source shortest distances (Dijkstra, binary heap).  Unreachable
/// nodes get Milliseconds{infinity}.
[[nodiscard]] std::vector<Milliseconds> shortest_distances(const Graph& g, NodeId source);

/// Shortest path between two nodes, or nullopt when unreachable.
[[nodiscard]] std::optional<Path> shortest_path(const Graph& g, NodeId source,
                                                NodeId target);

/// Result of a bounded breadth-first search: node and its hop distance.
struct HopDistance {
  NodeId node = 0;
  std::uint32_t hops = 0;
};

/// All nodes within `max_hops` of `source` (including source at 0 hops),
/// in breadth-first order.  Edge weights are ignored; this is the ISL
/// hop-count search the SpaceCDN lookup uses.
[[nodiscard]] std::vector<HopDistance> nodes_within_hops(const Graph& g, NodeId source,
                                                         std::uint32_t max_hops);

}  // namespace spacecdn::net
