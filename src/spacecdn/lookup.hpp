// Hop-bounded content discovery over the ISL fabric.
//
// Figure 7's experiment: "the latency to fetch objects from a satellite
// cache n = 1, 2, 3, 5, 10 ISL hops away".  The lookup walks the ISL graph
// breadth-first from the serving satellite and stops at the nearest
// cache-enabled satellite holding the object, within a hop budget.
#pragma once

#include <cstdint>
#include <optional>

#include "cdn/content.hpp"
#include "lsn/isl_network.hpp"
#include "spacecdn/fleet.hpp"

namespace spacecdn::space {

/// A located replica.
struct LookupResult {
  std::uint32_t satellite = 0;
  std::uint32_t hops = 0;
  /// One-way ISL latency from the origin satellite to the replica holder
  /// (0 when the origin itself holds the object).
  Milliseconds isl_latency{0.0};
};

/// Finds the hop-nearest cache-enabled satellite holding `id`, searching at
/// most `max_hops` ISL hops from `origin`.  Returns nullopt when no replica
/// is within the budget.  The fleet's residency index answers "no copy
/// anywhere" without a walk, and while it lists an object's holders (a rare
/// object, see cdn::ResidencyIndex) the walk compares against that list
/// instead of probing each satellite's cache; the answer is the same in
/// every case.
[[nodiscard]] std::optional<LookupResult> find_replica(const lsn::IslNetwork& isl,
                                                       const SatelliteFleet& fleet,
                                                       std::uint32_t origin,
                                                       cdn::ContentId id,
                                                       std::uint32_t max_hops);

/// Finds the hop-nearest cache-enabled satellite regardless of content
/// (duty-cycle experiments assume active caches hold the working set).
[[nodiscard]] std::optional<LookupResult> find_enabled_cache(const lsn::IslNetwork& isl,
                                                             const SatelliteFleet& fleet,
                                                             std::uint32_t origin,
                                                             std::uint32_t max_hops);

}  // namespace spacecdn::space
