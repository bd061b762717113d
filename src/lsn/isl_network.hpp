// The inter-satellite-link network at one instant.
//
// Builds a +grid ISL topology (forward/backward in plane, east/west across
// planes) over an ephemeris snapshot, with per-link latencies derived from
// the actual inter-satellite distances.  ISLs are free-space optical, so
// propagation runs at c -- the reason the paper's Figure 7 finds multi-hop
// satellite fetches competitive with terrestrial fiber.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "net/routing_cache.hpp"
#include "orbit/ephemeris.hpp"

namespace spacecdn::lsn {

/// Per-hop constants of the ISL fabric.
struct IslConfig {
  /// Switching/forwarding overhead per satellite hop (optical terminals
  /// plus onboard routing).
  Milliseconds per_hop_overhead{1.0};
  /// Line rate of one optical terminal (Starlink's space lasers are quoted
  /// at ~100 Gbps).  Pure annotation for the load engine's contention model:
  /// latency-only experiments ignore it, the request-level load engine
  /// (src/load) charges transfers against it.
  Mbps capacity{100'000.0};
};

/// Latency-weighted ISL graph; node ids equal satellite ids.
class IslNetwork {
 public:
  /// @param failed_satellites  satellites whose optical terminals are down
  /// (laser-terminal failures are routine at constellation scale); they
  /// keep their node ids but carry no ISL edges, so routing detours around
  /// them.
  IslNetwork(const orbit::WalkerConstellation& constellation,
             const orbit::EphemerisSnapshot& snapshot, IslConfig config = {},
             std::span<const std::uint32_t> failed_satellites = {});

  /// Whether a satellite's ISL terminals are marked failed.
  [[nodiscard]] bool is_failed(std::uint32_t sat) const;
  [[nodiscard]] std::uint32_t failed_count() const noexcept { return failed_count_; }

  /// Incrementally fails a satellite's ISL terminals: every incident link is
  /// removed, so routes detour around it from now on.  No-op if already
  /// failed.  O(degree) -- churn simulations flip satellites thousands of
  /// times without rebuilding the constellation graph.
  void fail(std::uint32_t sat);

  /// Reverses fail(): re-adds the links towards every currently-healthy
  /// +grid neighbour, with weights recomputed from the same snapshot
  /// geometry, so a fail/recover round-trip restores shortest-path
  /// latencies bit-identically.  No-op if not failed.
  void recover(std::uint32_t sat);

  /// Rebinds the network to a new ephemeris snapshot of the same
  /// constellation: every live link's weight is recomputed from the new
  /// geometry in place, failure state carries over, and cached routing
  /// state is invalidated.  Equivalent to (but much cheaper than)
  /// reconstructing the IslNetwork, because the +grid wiring is
  /// failure- and time-independent.
  void advance(const orbit::EphemerisSnapshot& snapshot);

  /// Counter bumped by every topology change (fail, recover, advance),
  /// starting at 0 for each network.  The SSSP and hop-ring caches are
  /// invalidated on every bump, and BentPipeRouter keys its memoised legs on
  /// it (together with the snapshot epoch, which alone drives its gateway
  /// landing lists).
  [[nodiscard]] std::uint64_t topology_epoch() const noexcept { return topology_epoch_; }

  [[nodiscard]] const net::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const orbit::EphemerisSnapshot& snapshot() const noexcept {
    return *snapshot_;
  }
  [[nodiscard]] const IslConfig& config() const noexcept { return config_; }

  /// One-way latency of the direct ISL between two +grid neighbours.
  /// @throws spacecdn::ConfigError if they are not neighbours.
  [[nodiscard]] Milliseconds link_latency(std::uint32_t a, std::uint32_t b) const;

  /// Shortest one-way latency between two satellites over ISLs.  Served
  /// from the epoch-keyed SSSP cache: repeated queries from the same source
  /// within an epoch cost a hash lookup, not a Dijkstra.
  [[nodiscard]] Milliseconds path_latency(std::uint32_t from, std::uint32_t to) const;

  /// Shortest latency from one satellite to all others (cached; returns a
  /// copy -- hot paths should prefer sssp_from and read distances in place).
  [[nodiscard]] std::vector<Milliseconds> latencies_from(std::uint32_t sat) const;

  /// The cached SSSP tree rooted at `sat`: one Dijkstra answers distance,
  /// hop-count, and path-reconstruction queries to every other satellite.
  [[nodiscard]] std::shared_ptr<const net::SsspTree> sssp_from(std::uint32_t sat) const;

  /// Cache effectiveness counters (hits/misses/evictions/invalidations).
  [[nodiscard]] net::RoutingCacheStats routing_cache_stats() const {
    return route_cache_.stats();
  }

  /// Satellites within `max_hops` ISL hops of `sat` (BFS order, includes
  /// `sat`), exactly net::nodes_within_hops on graph().  Memoised per
  /// (sat, max_hops) until the next topology change, bounded by the
  /// satellite count; thread-safe like sssp_from.
  [[nodiscard]] std::shared_ptr<const std::vector<net::HopDistance>> within_hops(
      std::uint32_t sat, std::uint32_t max_hops) const;

 private:
  /// Repopulates graph_ edges from the bound snapshot's geometry for every
  /// pair of currently-healthy partners.
  void rebuild_edges();

  /// Bumps topology_epoch_ and drops every cached route and hop ring.
  void topology_changed();

  const orbit::EphemerisSnapshot* snapshot_;
  IslConfig config_;
  net::Graph graph_;
  net::RoutingCache route_cache_;
  /// (sat << 32 | max_hops) -> BFS ring of the current topology.
  mutable std::shared_mutex rings_mutex_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<const std::vector<net::HopDistance>>>
      rings_;
  std::vector<bool> failed_;
  std::uint32_t failed_count_ = 0;
  std::uint64_t topology_epoch_ = 0;
  /// Full +grid partner lists (failure-independent).  Phase-nearest pairing
  /// is not symmetric -- a satellite may be chosen by a neighbour it did not
  /// itself choose -- so recover() needs the materialised undirected
  /// adjacency, not grid_neighbors() alone.
  std::vector<std::vector<std::uint32_t>> partners_;
};

}  // namespace spacecdn::lsn
