// The paper's section-4 replica layout under its historical name.
//
// Shell 1 has 72 planes of 22 satellites, so "with around 4 copies
// distributed within each plane, an object can be reachable within 5 hops,
// even within a single orbital plane; fewer copies would be needed if
// east-west ISLs across orbital planes are also used."  That layout is the
// kPerPlane policy of PlacementMap (placement_map.hpp); ContentPlacement is
// only a per-plane map built from the two numbers the paper talks about.
#pragma once

#include <cstdint>

#include "spacecdn/placement_map.hpp"

namespace spacecdn::space {

/// Strategy for the per-plane layout.
struct PlacementConfig {
  /// Replicas of each object per orbital plane.
  std::uint32_t copies_per_plane = 4;
  /// Place replicas in every n-th plane only (1 = every plane).  Cross-plane
  /// ISLs make sparser-than-every-plane placements viable.
  std::uint32_t plane_stride = 1;
};

/// A PlacementMap with the kPerPlane policy.
class ContentPlacement : public PlacementMap {
 public:
  /// @throws spacecdn::ConfigError on zero copies, more copies than
  /// satellites in a plane, a zero stride, or a stride larger than the
  /// constellation's plane count.
  ContentPlacement(const orbit::WalkerConstellation& constellation,
                   PlacementConfig config)
      : PlacementMap(constellation, {.policy = PlacementPolicy::kPerPlane,
                                     .replicas = config.copies_per_plane,
                                     .plane_stride = config.plane_stride}) {}
};

}  // namespace spacecdn::space
