#include "spacecdn/lookup.hpp"

namespace spacecdn::space {

namespace {

template <typename Predicate>
std::optional<LookupResult> bfs_find(const lsn::IslNetwork& isl, std::uint32_t origin,
                                     std::uint32_t max_hops, Predicate&& holds) {
  // BFS delimits the minimal hop ring that contains a candidate; within that
  // ring the lowest-latency candidate wins (BFS emission order is an
  // artefact of adjacency-list layout, not a preference).  All latencies
  // come from one epoch-cached SSSP tree, so the whole lookup costs at most
  // one Dijkstra -- it used to run one per candidate.
  std::optional<LookupResult> best;
  std::shared_ptr<const net::SsspTree> tree;  // fetched on the first candidate
  const auto ring = isl.within_hops(origin, max_hops);
  for (const net::HopDistance& hd : *ring) {
    if (best && hd.hops > best->hops) break;  // left the minimal hop ring
    if (!holds(hd.node)) continue;
    if (hd.node == origin) return LookupResult{origin, 0, Milliseconds{0.0}};
    if (tree == nullptr) tree = isl.sssp_from(origin);
    const Milliseconds latency = tree->distance(hd.node);
    // Strict less-than: equal latencies keep the earlier (BFS-order)
    // candidate, a deterministic tie-break.
    if (!best || latency < best->isl_latency) {
      best = LookupResult{hd.node, hd.hops, latency};
    }
  }
  return best;
}

}  // namespace

std::optional<LookupResult> find_replica(const lsn::IslNetwork& isl,
                                         const SatelliteFleet& fleet, std::uint32_t origin,
                                         cdn::ContentId id, std::uint32_t max_hops) {
  return bfs_find(isl, origin, max_hops,
                  [&](std::uint32_t sat) { return fleet.holds(sat, id); });
}

std::optional<LookupResult> find_enabled_cache(const lsn::IslNetwork& isl,
                                               const SatelliteFleet& fleet,
                                               std::uint32_t origin,
                                               std::uint32_t max_hops) {
  return bfs_find(isl, origin, max_hops,
                  [&](std::uint32_t sat) { return fleet.cache_enabled(sat); });
}

}  // namespace spacecdn::space
