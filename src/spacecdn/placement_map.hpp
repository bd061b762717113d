// Replica placement: one object -> satellite map with four policies.
//
// Every placement in the system -- the paper's section-4 layout, the
// churn-minimal jump map and its erasure-coded variant, and the naive
// strawman they are measured against -- is a PlacementMap with a policy, in
// the spirit of DAOS's pl_map (one interface, several placement policies):
//
//  * kPerPlane -- the paper's fixed layout: "with around 4 copies
//    distributed within each plane, an object can be reachable within 5
//    hops".  `replicas` copies per plane, spread evenly with a per-object
//    rotation, over every `plane_stride`-th plane.  It ignores membership,
//    so a dead holder stays a holder until it returns.
//
//  * kBaseline -- naive membership-aware recompute: copies evenly spaced
//    over the *live* satellite list, so any liveness change reshuffles
//    nearly every object.  Kept as the measurable strawman the ablation
//    bench compares the jump policies against.
//
//  * kJump -- replica r of object o is jump_consistent_hash over the
//    *full* id space, re-probed deterministically while the candidate is
//    dead or violates the diversity constraint.  Probe sequences are
//    per-(object, replica) and independent of the live count, so one
//    membership change moves only O(1/N) of the catalog.
//
//  * kJumpEc -- jump placement of an ErasureProfile's data+parity
//    fragments (striping.hpp), one fragment per satellite.  Storage cost
//    drops from replicas x to (k+m)/k x; an object stays readable while any
//    `data` fragments survive.
//
// MembershipMap is a versioned liveness bitmap over the satellite ids;
// ChurnController (resilience.hpp) keeps it in step with fault events, and
// every change bumps the version so consumers detect staleness in O(1).
// The jump policies force replicas onto pairwise-distinct orbital planes
// (kPlane) or distinct planes *and* in-plane phase slots (kPhase), so a
// plane-level fault domain can never hold every copy of an object.
//
// RepairDaemon (resilience.hpp) audits any policy the same way: it keeps
// the membership snapshot it last synced to and, on each audit, moves only
// the (object, slot) pairs whose assignment differs between that snapshot
// and the current one -- the "bytes moved per churn cycle" metric of
// bench/ablation_placement_map.  For kPerPlane the two always agree, so the
// audit reduces to refilling lost copies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/content.hpp"
#include "des/random.hpp"
#include "orbit/walker.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/striping.hpp"

namespace spacecdn::space {

/// Lamping & Veach's jump consistent hash: maps `key` to a bucket in
/// [0, buckets) such that growing the bucket count moves only ~1/buckets of
/// the keys.  Deterministic, stateless, O(ln buckets).
[[nodiscard]] std::uint32_t jump_consistent_hash(std::uint64_t key,
                                                 std::uint32_t buckets) noexcept;

/// Placement policy of a PlacementMap.
enum class PlacementPolicy {
  /// The paper's fixed layout: `replicas` copies in each selected plane,
  /// membership ignored.
  kPerPlane,
  /// Naive membership-aware recompute: replicas are evenly spaced over the
  /// *live* satellite list, so any liveness change renumbers nearly every
  /// assignment -- the mod-N rehash a placement without consistent hashing
  /// falls into.  Kept as the ablation baseline.
  kBaseline,
  /// Jump consistent hashing with deterministic re-probing: one membership
  /// change moves O(1/N) of objects.
  kJump,
  /// Jump placement of erasure-coded fragments instead of whole replicas.
  kJumpEc,
};

[[nodiscard]] std::string_view to_string(PlacementPolicy policy) noexcept;
/// @throws spacecdn::ConfigError on an unknown name
/// ("per-plane"/"baseline"/"jump"/"jump-ec").
[[nodiscard]] PlacementPolicy parse_placement_policy(const std::string& name);

/// How strictly replicas must spread across the orbit geometry.
enum class ReplicaDiversity {
  kPlane,  ///< pairwise-distinct orbital planes
  kPhase,  ///< distinct planes AND distinct in-plane phase slots
};

[[nodiscard]] std::string_view to_string(ReplicaDiversity diversity) noexcept;
/// @throws spacecdn::ConfigError on an unknown name ("plane"/"phase").
[[nodiscard]] ReplicaDiversity parse_replica_diversity(const std::string& name);

/// Versioned satellite-liveness map.  A satellite is a placement member
/// while it is online, its cache process is up, and it is duty-cycle
/// enabled; ChurnController keeps the map in sync with fault events.
class MembershipMap {
 public:
  /// All satellites start live at version 0.
  /// @throws spacecdn::ConfigError on an empty constellation.
  explicit MembershipMap(std::uint32_t satellite_count);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(live_.size());
  }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] bool live(std::uint32_t sat) const;
  [[nodiscard]] std::uint32_t live_count() const noexcept { return live_count_; }

  /// Flips one satellite's membership.  Returns whether liveness actually
  /// changed (and therefore whether the version was bumped); redundant
  /// calls are idempotent and free.
  bool set_live(std::uint32_t sat, bool live);

  /// The liveness bitmap, usable as a snapshot basis for
  /// PlacementMap::replicas_under (copy it to freeze a version).
  [[nodiscard]] const std::vector<bool>& bitmap() const noexcept { return live_; }

 private:
  std::vector<bool> live_;
  std::uint32_t live_count_ = 0;
  std::uint64_t version_ = 0;
};

/// Placement-map configuration.
struct PlacementMapConfig {
  PlacementPolicy policy = PlacementPolicy::kJump;
  /// Whole-object copies per object (kBaseline / kJump), or per selected
  /// plane (kPerPlane).
  std::uint32_t replicas = 4;
  /// kPerPlane only: place copies in every n-th global plane (1 = every
  /// plane).  Cross-plane ISLs make sparser placements viable.
  std::uint32_t plane_stride = 1;
  ReplicaDiversity diversity = ReplicaDiversity::kPlane;
  /// Fragment geometry of the kJumpEc mode (data + parity fragments, one
  /// satellite each).
  ErasureProfile ec = {};
};

/// Deterministic object -> satellite placement over a versioned membership.
class PlacementMap {
 public:
  /// @throws spacecdn::ConfigError on zero replicas or an invalid erasure
  /// profile; under kPerPlane, on more copies than satellites in a plane or
  /// a plane stride outside [1, plane count]; otherwise, when the config
  /// asks for more placements than the constellation has planes (diversity
  /// would be unsatisfiable).
  PlacementMap(const orbit::WalkerConstellation& constellation,
               PlacementMapConfig config);

  [[nodiscard]] const PlacementMapConfig& config() const noexcept { return config_; }
  [[nodiscard]] MembershipMap& membership() noexcept { return membership_; }
  [[nodiscard]] const MembershipMap& membership() const noexcept {
    return membership_;
  }

  /// Placements per object: `replicas` whole copies, `replicas` per
  /// selected plane under kPerPlane, or data+parity fragments under kJumpEc.
  [[nodiscard]] std::uint32_t placements_per_object() const noexcept;

  /// Live placements an object needs to stay readable: 1 whole copy, or
  /// `ec.data` fragments under kJumpEc.
  [[nodiscard]] std::uint32_t min_live_for_read() const noexcept;

  /// Bytes one holder stores for `item`: the full object, or one fragment
  /// (size / ec.data) under kJumpEc.
  [[nodiscard]] Megabytes stored_bytes(const cdn::ContentItem& item) const noexcept;

  /// Holder satellites of `id` under the current membership, in placement
  /// order.  Deterministic: same membership version => identical result.
  [[nodiscard]] std::vector<std::uint32_t> replicas(cdn::ContentId id) const;

  /// Holders under an explicit liveness snapshot (delta repair, what-if).
  /// `live` must have one entry per satellite.
  [[nodiscard]] std::vector<std::uint32_t> replicas_under(
      cdn::ContentId id, const std::vector<bool>& live) const;

  /// Inserts `item` (or its fragments) into every current holder's cache.
  void place(SatelliteFleet& fleet, const cdn::ContentItem& item,
             Milliseconds now) const;

  /// kPerPlane only: places a whole catalog, leaving every cache exactly as
  /// calling place() on each item in catalog order would -- each cache sees
  /// its items in catalog order, so every recency/frequency state and stat
  /// is the same.  It fills one satellite at a time instead of scattering
  /// each item over all its holders: plane by plane, the items are
  /// counting-sorted into the plane's in-plane slots, and each slot's cache
  /// is reserve()d for its bucket and then filled.  Working memory is one
  /// plane's buckets, reused across planes.
  /// @throws spacecdn::ConfigError under any other policy (their holders do
  /// not group by plane; place item by item there).
  void prewarm(SatelliteFleet& fleet, const std::vector<cdn::ContentItem>& items,
               Milliseconds now) const;

  /// Per-satellite assignment-count skew over a catalog prefix [0, size):
  /// mean, p99, and max of placements per *live* satellite.  Uniformity is
  /// the placement-quality half of the DAOS pl_bench measurement.
  struct LoadSkew {
    double mean = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    [[nodiscard]] double p99_over_mean() const noexcept {
      return mean > 0.0 ? p99 / mean : 0.0;
    }
  };
  [[nodiscard]] LoadSkew load_skew(std::uint64_t catalog_size) const;

  /// Hop-distance statistics to the nearest holder (the min_live_for_read-th
  /// nearest under kJumpEc), over `probes` random (satellite, object) pairs
  /// -- the hit-distance half of placement quality.
  struct HopStats {
    double mean_hops = 0.0;
    std::uint32_t max_hops = 0;
    double p99_hops = 0.0;
  };
  [[nodiscard]] HopStats analyze(std::uint32_t probes, std::uint64_t catalog_size,
                                 des::Rng& rng) const;

  /// Exact +grid hop distance between two satellites (UINT32_MAX across
  /// shells, where no grid ISLs exist).
  [[nodiscard]] std::uint32_t grid_hop_distance(std::uint32_t a,
                                                std::uint32_t b) const;

 private:
  /// Appends the kPerPlane holders of `id` to `out`.
  void pick_per_plane(cdn::ContentId id, std::vector<std::uint32_t>& out) const;
  /// Appends the placement for (id, slot r) under `live` to `chosen`.
  void pick_jump(cdn::ContentId id, std::uint32_t r, const std::vector<bool>& live,
                 std::vector<std::uint32_t>& chosen) const;
  [[nodiscard]] bool diversity_ok(std::uint32_t candidate,
                                  const std::vector<std::uint32_t>& chosen) const;

  const orbit::WalkerConstellation* constellation_;
  PlacementMapConfig config_;
  MembershipMap membership_;
};

}  // namespace spacecdn::space
