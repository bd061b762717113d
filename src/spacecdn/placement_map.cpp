#include "spacecdn/placement_map.hpp"

#include <algorithm>

#include "des/stats.hpp"
#include "util/error.hpp"

namespace spacecdn::space {

namespace {

/// Jump re-probe budget before the deterministic linear fallback kicks in
/// (only reachable when diversity constraints leave very few candidates).
constexpr std::uint32_t kMaxProbeAttempts = 64;

/// Cheap deterministic mixer (murmur finalizer) so object keys decorrelate
/// from dense catalog ids.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Per-(object, slot, attempt) probe key.  Streams for different slots and
/// attempts are independent, and none depends on the live count -- the
/// property the O(1/N) movement bound rests on.
std::uint64_t probe_key(cdn::ContentId id, std::uint32_t slot,
                        std::uint32_t attempt) {
  return des::mix_seed(des::mix_seed(id, slot), attempt);
}

// The kPerPlane layout, shared by pick_per_plane and prewarm so the two
// cannot drift.  Copy 0 of `id` in global plane `plane` of `size` satellites
// sits at a per-object, per-plane rotation, so replicas of different objects
// do not pile onto the same satellites ...
std::uint32_t per_plane_rotation(cdn::ContentId id, std::uint32_t plane,
                                 std::uint32_t size) {
  return static_cast<std::uint32_t>(mix(id * 1315423911ULL + plane) % size);
}

// ... and copy `copy` of `copies` is spaced evenly from it (the slots are
// distinct because copies <= size, which the constructor checks).
std::uint32_t per_plane_slot(std::uint32_t rotation, std::uint32_t copy,
                             std::uint32_t copies, std::uint32_t size) {
  return (rotation + copy * size / copies) % size;
}

}  // namespace

std::uint32_t jump_consistent_hash(std::uint64_t key, std::uint32_t buckets) noexcept {
  if (buckets <= 1) return 0;
  std::int64_t bucket = -1;
  std::int64_t next = 0;
  while (next < static_cast<std::int64_t>(buckets)) {
    bucket = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(1LL << 31) / static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::uint32_t>(bucket);
}

std::string_view to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kPerPlane: return "per-plane";
    case PlacementPolicy::kBaseline: return "baseline";
    case PlacementPolicy::kJump: return "jump";
    case PlacementPolicy::kJumpEc: return "jump-ec";
  }
  return "unknown";
}

PlacementPolicy parse_placement_policy(const std::string& name) {
  if (name == "per-plane") return PlacementPolicy::kPerPlane;
  if (name == "baseline") return PlacementPolicy::kBaseline;
  if (name == "jump") return PlacementPolicy::kJump;
  if (name == "jump-ec") return PlacementPolicy::kJumpEc;
  throw ConfigError("unknown placement policy '" + name +
                    "' (expected per-plane|baseline|jump|jump-ec)");
}

std::string_view to_string(ReplicaDiversity diversity) noexcept {
  switch (diversity) {
    case ReplicaDiversity::kPlane: return "plane";
    case ReplicaDiversity::kPhase: return "phase";
  }
  return "unknown";
}

ReplicaDiversity parse_replica_diversity(const std::string& name) {
  if (name == "plane") return ReplicaDiversity::kPlane;
  if (name == "phase") return ReplicaDiversity::kPhase;
  throw ConfigError("unknown replica diversity '" + name +
                    "' (expected plane|phase)");
}

MembershipMap::MembershipMap(std::uint32_t satellite_count)
    : live_(satellite_count, true), live_count_(satellite_count) {
  SPACECDN_EXPECT(satellite_count > 0, "membership needs at least one satellite");
}

bool MembershipMap::live(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < live_.size(), "satellite id out of membership range");
  return live_[sat];
}

bool MembershipMap::set_live(std::uint32_t sat, bool live) {
  SPACECDN_EXPECT(sat < live_.size(), "satellite id out of membership range");
  if (live_[sat] == live) return false;
  live_[sat] = live;
  if (live) {
    ++live_count_;
  } else {
    --live_count_;
  }
  ++version_;
  return true;
}

PlacementMap::PlacementMap(const orbit::WalkerConstellation& constellation,
                           PlacementMapConfig config)
    : constellation_(&constellation),
      config_(config),
      membership_(constellation.size()) {
  SPACECDN_EXPECT(config.replicas > 0, "need at least one replica");
  SPACECDN_EXPECT(config.ec.data > 0, "erasure profile needs a data fragment");
  if (config.policy == PlacementPolicy::kPerPlane) {
    for (const orbit::WalkerDesign& shell : constellation.shells()) {
      SPACECDN_EXPECT(config.replicas <= shell.sats_per_plane,
                      "cannot place more copies than satellites in a plane");
    }
    SPACECDN_EXPECT(config.plane_stride > 0, "plane stride must be positive");
    // A stride past the plane count would silently collapse the placement
    // to plane 0 only, losing all plane diversity.
    SPACECDN_EXPECT(config.plane_stride <= constellation.plane_count(),
                    "plane stride cannot exceed the plane count");
    return;
  }
  const std::uint32_t placements = placements_per_object();
  SPACECDN_EXPECT(placements <= constellation.plane_count(),
                  "plane-diverse placement needs at least as many planes as "
                  "placements per object");
  if (config.diversity == ReplicaDiversity::kPhase) {
    for (const orbit::WalkerDesign& shell : constellation.shells()) {
      SPACECDN_EXPECT(placements <= shell.sats_per_plane,
                      "phase-diverse placement needs at least as many in-plane "
                      "slots as placements per object");
    }
  }
}

std::uint32_t PlacementMap::placements_per_object() const noexcept {
  if (config_.policy == PlacementPolicy::kJumpEc) return config_.ec.fragments();
  if (config_.policy == PlacementPolicy::kPerPlane) {
    const std::uint32_t stride = config_.plane_stride;
    return (constellation_->plane_count() + stride - 1) / stride * config_.replicas;
  }
  return config_.replicas;
}

std::uint32_t PlacementMap::min_live_for_read() const noexcept {
  return config_.policy == PlacementPolicy::kJumpEc ? config_.ec.data : 1;
}

Megabytes PlacementMap::stored_bytes(const cdn::ContentItem& item) const noexcept {
  if (config_.policy == PlacementPolicy::kJumpEc) {
    return item.size * (1.0 / static_cast<double>(config_.ec.data));
  }
  return item.size;
}

std::vector<std::uint32_t> PlacementMap::replicas(cdn::ContentId id) const {
  return replicas_under(id, membership_.bitmap());
}

std::vector<std::uint32_t> PlacementMap::replicas_under(
    cdn::ContentId id, const std::vector<bool>& live) const {
  SPACECDN_EXPECT(live.size() == membership_.size(),
                  "liveness snapshot must cover every satellite");
  const std::uint32_t placements = placements_per_object();
  std::vector<std::uint32_t> out;
  out.reserve(placements);

  if (config_.policy == PlacementPolicy::kPerPlane) {
    pick_per_plane(id, out);
    return out;
  }
  if (config_.policy == PlacementPolicy::kBaseline) {
    // Naive membership-aware recompute: replicas spread evenly over the
    // *live* satellite list.  Any liveness change renumbers the list, so
    // nearly every object's holders shift -- the classic mod-N rehash
    // pathology this engine exists to replace.  Diversity is ignored.
    std::vector<std::uint32_t> live_sats;
    live_sats.reserve(live.size());
    for (std::uint32_t sat = 0; sat < live.size(); ++sat) {
      if (live[sat]) live_sats.push_back(sat);
    }
    if (live_sats.empty()) return out;
    const auto n = static_cast<std::uint32_t>(live_sats.size());
    const std::uint32_t copies = std::min(placements, n);
    const auto start = static_cast<std::uint32_t>(mix(id) % n);
    for (std::uint32_t r = 0; r < copies; ++r) {
      out.push_back(live_sats[(start + r * n / copies) % n]);
    }
    return out;
  }

  for (std::uint32_t r = 0; r < placements; ++r) {
    pick_jump(id, r, live, out);
  }
  return out;
}

void PlacementMap::pick_per_plane(cdn::ContentId id,
                                  std::vector<std::uint32_t>& out) const {
  // Planes are addressed globally across shells, so every shell of a
  // multi-shell constellation receives replicas.  The holder order is part
  // of the contract (replicas() callers and RepairDaemon read it); the cache
  // contents only depend on each cache seeing its items in catalog order,
  // which prewarm() keeps.
  const std::uint32_t planes = constellation_->plane_count();
  const std::uint32_t copies = config_.replicas;
  for (std::uint32_t p = 0; p < planes; p += config_.plane_stride) {
    const std::uint32_t s = constellation_->plane_size(p);
    const std::uint32_t rotation = per_plane_rotation(id, p, s);
    for (std::uint32_t c = 0; c < copies; ++c) {
      out.push_back(constellation_->plane_sat(p, per_plane_slot(rotation, c, copies, s)));
    }
  }
}

void PlacementMap::pick_jump(cdn::ContentId id, std::uint32_t r,
                             const std::vector<bool>& live,
                             std::vector<std::uint32_t>& chosen) const {
  const std::uint32_t n = membership_.size();
  // Probe over the FULL id domain: a candidate depends only on (id, r,
  // attempt), never on the live count.  A membership flip therefore only
  // re-routes slots whose probe sequence would have accepted the flipped
  // satellite -- O(placements/N) of all slots.
  for (std::uint32_t attempt = 0; attempt < kMaxProbeAttempts; ++attempt) {
    const std::uint32_t cand = jump_consistent_hash(probe_key(id, r, attempt), n);
    if (live[cand] && diversity_ok(cand, chosen)) {
      chosen.push_back(cand);
      return;
    }
  }
  // Probe budget exhausted (only plausible under mass failure or very tight
  // diversity): deterministic linear sweep from the first probe's candidate.
  const std::uint32_t start = jump_consistent_hash(probe_key(id, r, 0), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t cand = (start + i) % n;
    if (live[cand] && diversity_ok(cand, chosen)) {
      chosen.push_back(cand);
      return;
    }
  }
  // Diversity unsatisfiable under this membership: prefer a duplicate-free
  // live holder over under-replication.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t cand = (start + i) % n;
    if (live[cand] && std::find(chosen.begin(), chosen.end(), cand) == chosen.end()) {
      chosen.push_back(cand);
      return;
    }
  }
  // No live satellite can take the slot; leave it unfilled.
}

bool PlacementMap::diversity_ok(std::uint32_t candidate,
                                const std::vector<std::uint32_t>& chosen) const {
  const std::uint32_t cand_plane = constellation_->plane_of(candidate);
  const std::uint32_t cand_slot = constellation_->index_of(candidate).in_plane;
  for (std::uint32_t sat : chosen) {
    if (sat == candidate) return false;
    if (constellation_->plane_of(sat) == cand_plane) return false;
    if (config_.diversity == ReplicaDiversity::kPhase &&
        constellation_->index_of(sat).in_plane == cand_slot) {
      return false;
    }
  }
  return true;
}

void PlacementMap::place(SatelliteFleet& fleet, const cdn::ContentItem& item,
                         Milliseconds now) const {
  cdn::ContentItem stored = item;
  stored.size = stored_bytes(item);
  for (std::uint32_t sat : replicas(item.id)) {
    (void)fleet.cache(sat).insert(stored, now);
  }
}

void PlacementMap::prewarm(SatelliteFleet& fleet,
                           const std::vector<cdn::ContentItem>& items,
                           Milliseconds now) const {
  SPACECDN_EXPECT(config_.policy == PlacementPolicy::kPerPlane,
                  "prewarm needs the per-plane policy; place other policies "
                  "item by item");
  SPACECDN_EXPECT(items.size() <= UINT32_MAX, "catalog too large to prewarm");
  const std::uint32_t copies = config_.replicas;
  const auto n = static_cast<std::uint32_t>(items.size());
  std::vector<std::uint32_t> rotation(n);
  std::vector<std::uint32_t> start;  // per-slot bucket offsets
  std::vector<std::uint32_t> bucketed(static_cast<std::size_t>(n) * copies);
  const std::uint32_t planes = constellation_->plane_count();
  for (std::uint32_t p = 0; p < planes; p += config_.plane_stride) {
    const std::uint32_t s = constellation_->plane_size(p);
    // Counting sort of (item, copy) pairs by in-plane slot.  Filling in
    // catalog order keeps every bucket in catalog order, so each cache sees
    // the insert sequence the per-item place() loop gives it.
    start.assign(s + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      rotation[i] = per_plane_rotation(items[i].id, p, s);
      for (std::uint32_t c = 0; c < copies; ++c) {
        ++start[per_plane_slot(rotation[i], c, copies, s) + 1];
      }
    }
    for (std::uint32_t k = 0; k < s; ++k) start[k + 1] += start[k];
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t c = 0; c < copies; ++c) {
        // start[slot] doubles as the bucket's fill cursor ...
        bucketed[start[per_plane_slot(rotation[i], c, copies, s)]++] = i;
      }
    }
    // ... so afterwards bucket k ends at start[k] and begins at start[k - 1].
    std::uint32_t begin = 0;
    for (std::uint32_t k = 0; k < s; ++k) {
      cdn::Cache& cache = fleet.cache(constellation_->plane_sat(p, k));
      cache.reserve(start[k] - begin);
      // A per-plane holder stores the whole object (stored_bytes == size).
      for (std::uint32_t j = begin; j < start[k]; ++j) {
        (void)cache.insert(items[bucketed[j]], now);
      }
      begin = start[k];
    }
  }
}

PlacementMap::LoadSkew PlacementMap::load_skew(std::uint64_t catalog_size) const {
  SPACECDN_EXPECT(catalog_size > 0, "catalog must not be empty");
  std::vector<std::uint32_t> counts(membership_.size(), 0);
  for (cdn::ContentId id = 0; id < catalog_size; ++id) {
    for (std::uint32_t sat : replicas(id)) ++counts[sat];
  }
  des::SampleSet per_sat;
  double max = 0.0;
  for (std::uint32_t sat = 0; sat < membership_.size(); ++sat) {
    if (!membership_.live(sat)) continue;
    per_sat.add(static_cast<double>(counts[sat]));
    max = std::max(max, static_cast<double>(counts[sat]));
  }
  if (per_sat.empty()) return {};
  return LoadSkew{per_sat.mean(), per_sat.quantile(0.99), max};
}

std::uint32_t PlacementMap::grid_hop_distance(std::uint32_t a, std::uint32_t b) const {
  const auto ia = constellation_->index_of(a);
  const auto ib = constellation_->index_of(b);
  // Grid ISLs never cross shells; cross-shell holders are unreachable over
  // the grid (the router falls back to the ground tier there).
  if (ia.shell != ib.shell) return UINT32_MAX;
  const orbit::WalkerDesign& shell = constellation_->shell(ia.shell);
  const std::uint32_t dp =
      ia.plane > ib.plane ? ia.plane - ib.plane : ib.plane - ia.plane;
  const std::uint32_t ds =
      ia.in_plane > ib.in_plane ? ia.in_plane - ib.in_plane : ib.in_plane - ia.in_plane;
  return std::min(dp, shell.planes - dp) + std::min(ds, shell.sats_per_plane - ds);
}

PlacementMap::HopStats PlacementMap::analyze(std::uint32_t probes,
                                             std::uint64_t catalog_size,
                                             des::Rng& rng) const {
  SPACECDN_EXPECT(probes > 0, "need at least one probe");
  SPACECDN_EXPECT(catalog_size > 0, "catalog must not be empty");
  des::SampleSet hops;
  std::uint32_t max_hops = 0;
  for (std::uint32_t i = 0; i < probes; ++i) {
    const auto sat =
        static_cast<std::uint32_t>(rng.uniform_int(0, constellation_->size() - 1));
    const cdn::ContentId id = rng.uniform_int(0, catalog_size - 1);
    // A read needs min_live_for_read() holders (1 whole copy, or `data`
    // fragments fetched in parallel), so its hop distance is the k-th
    // nearest holder's.
    std::vector<std::uint32_t> dist;
    for (std::uint32_t holder : replicas(id)) {
      dist.push_back(grid_hop_distance(sat, holder));
    }
    const std::uint32_t need = min_live_for_read();
    if (dist.size() < need) continue;
    std::nth_element(dist.begin(), dist.begin() + (need - 1), dist.end());
    const std::uint32_t kth = dist[need - 1];
    // Probes whose needed holders sit in another shell are ground-tier
    // fetches, not hop counts; they are excluded from the hop statistics.
    if (kth == UINT32_MAX) continue;
    hops.add(static_cast<double>(kth));
    max_hops = std::max(max_hops, kth);
  }
  if (hops.empty()) return {};
  return HopStats{hops.mean(), max_hops, hops.quantile(0.99)};
}

}  // namespace spacecdn::space
