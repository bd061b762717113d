// Unit tests for the placement map: hash movement properties, versioned
// membership, orbit-aware replica diversity, erasure accounting, the pinned
// per-plane holder order, and the RepairDaemon's delta repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "des/random.hpp"
#include "des/stats.hpp"
#include "orbit/walker.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/placement_map.hpp"
#include "spacecdn/resilience.hpp"
#include "util/error.hpp"

namespace spacecdn::space {
namespace {

constexpr Milliseconds kNow{0.0};
constexpr cdn::ContentId kCatalog = 2000;

const orbit::WalkerConstellation& shell1() {
  static const orbit::WalkerConstellation c(orbit::starlink_shell1());
  return c;
}

cdn::ContentItem item(cdn::ContentId id, double mb = 10.0) {
  return cdn::ContentItem{id, Megabytes{mb}, data::Region::kEurope};
}

bool holds_sat(const std::vector<std::uint32_t>& set, std::uint32_t sat) {
  return std::find(set.begin(), set.end(), sat) != set.end();
}

TEST(JumpHash, BucketRangeAndDeterminism) {
  for (std::uint64_t key : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    const std::uint32_t bucket = jump_consistent_hash(key, 100);
    EXPECT_LT(bucket, 100u);
    EXPECT_EQ(bucket, jump_consistent_hash(key, 100));
  }
  EXPECT_EQ(jump_consistent_hash(123, 1), 0u);
}

TEST(JumpHash, GrowthMovesKeysOnlyToTheNewBucket) {
  // The defining jump-hash property: going from n to n+1 buckets, every key
  // either keeps its bucket or moves to the brand-new bucket n.
  for (std::uint32_t n = 1; n < 40; ++n) {
    for (std::uint64_t key = 0; key < 500; ++key) {
      const std::uint32_t before = jump_consistent_hash(key, n);
      const std::uint32_t after = jump_consistent_hash(key, n + 1);
      EXPECT_TRUE(after == before || after == n)
          << "key " << key << " jumped " << before << " -> " << after
          << " growing " << n << " -> " << n + 1;
    }
  }
}

TEST(PlacementMapConfigTest, PolicyAndDiversityParsing) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kPerPlane, PlacementPolicy::kBaseline, PlacementPolicy::kJump,
        PlacementPolicy::kJumpEc}) {
    EXPECT_EQ(parse_placement_policy(std::string(to_string(policy))), policy);
  }
  EXPECT_EQ(parse_placement_policy("per-plane"), PlacementPolicy::kPerPlane);
  EXPECT_EQ(parse_placement_policy("baseline"), PlacementPolicy::kBaseline);
  EXPECT_EQ(parse_placement_policy("jump"), PlacementPolicy::kJump);
  EXPECT_EQ(parse_placement_policy("jump-ec"), PlacementPolicy::kJumpEc);
  EXPECT_THROW((void)parse_placement_policy("mod"), ConfigError);
  EXPECT_EQ(parse_replica_diversity("plane"), ReplicaDiversity::kPlane);
  EXPECT_EQ(parse_replica_diversity("phase"), ReplicaDiversity::kPhase);
  EXPECT_THROW((void)parse_replica_diversity("shell"), ConfigError);
  EXPECT_EQ(to_string(PlacementPolicy::kJumpEc), "jump-ec");
  EXPECT_EQ(to_string(ReplicaDiversity::kPhase), "phase");
}

TEST(PlacementMapConfigTest, RejectsUnsatisfiableConfigs) {
  const orbit::WalkerConstellation& c = shell1();
  PlacementMapConfig cfg;
  cfg.replicas = 0;
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
  cfg = {};
  cfg.replicas = c.plane_count() + 1;  // more placements than planes
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
  cfg = {};
  cfg.diversity = ReplicaDiversity::kPhase;
  cfg.replicas = c.design().sats_per_plane + 1;  // more than phase slots
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
  cfg = {};
  cfg.policy = PlacementPolicy::kJumpEc;
  cfg.ec.data = 0;
  EXPECT_THROW(PlacementMap(c, cfg), ConfigError);
}

TEST(MembershipMapTest, VersioningAndIdempotence) {
  EXPECT_THROW(MembershipMap(0), ConfigError);
  MembershipMap m(8);
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.version(), 0u);
  EXPECT_EQ(m.live_count(), 8u);
  EXPECT_FALSE(m.set_live(3, true));  // already live: no version bump
  EXPECT_EQ(m.version(), 0u);
  EXPECT_TRUE(m.set_live(3, false));
  EXPECT_EQ(m.version(), 1u);
  EXPECT_EQ(m.live_count(), 7u);
  EXPECT_FALSE(m.live(3));
  EXPECT_FALSE(m.set_live(3, false));  // idempotent repeat
  EXPECT_EQ(m.version(), 1u);
  EXPECT_TRUE(m.set_live(3, true));
  EXPECT_EQ(m.version(), 2u);
  EXPECT_EQ(m.live_count(), 8u);
}

TEST(PlacementMapTest, SameMembershipSameReplicas) {
  const orbit::WalkerConstellation& c = shell1();
  const PlacementMap a(c, {});
  const PlacementMap b(c, {});
  for (cdn::ContentId id = 0; id < kCatalog; ++id) {
    const auto holders = a.replicas(id);
    EXPECT_EQ(holders, b.replicas(id));  // pure function of (id, membership)
    EXPECT_EQ(holders, a.replicas_under(id, a.membership().bitmap()));
    EXPECT_EQ(holders.size(), a.placements_per_object());
  }
}

TEST(PlacementMapTest, RemovalMovesOnlyTheFailedSatellitesObjects) {
  PlacementMap map(shell1(), {});
  const std::vector<bool> before = map.membership().bitmap();
  const std::uint32_t failed = map.replicas(0)[0];  // known to hold object 0
  ASSERT_TRUE(map.membership().set_live(failed, false));
  std::uint64_t touched = 0;
  for (cdn::ContentId id = 0; id < kCatalog; ++id) {
    const auto old_set = map.replicas_under(id, before);
    const auto now_set = map.replicas(id);
    EXPECT_FALSE(holds_sat(now_set, failed));
    if (holds_sat(old_set, failed)) {
      ++touched;
    } else {
      // The strict minimal-movement property: an object that never lived on
      // the failed satellite keeps every holder, in order.
      EXPECT_EQ(now_set, old_set) << "object " << id << " moved needlessly";
    }
  }
  // Expected fraction is replicas/N (~4/1584); allow generous slack.
  EXPECT_GE(touched, 1u);
  EXPECT_LT(touched, kCatalog / 20);
}

TEST(PlacementMapTest, BaselinePolicyReshufflesNearlyEverything) {
  PlacementMapConfig cfg;
  cfg.policy = PlacementPolicy::kBaseline;
  PlacementMap map(shell1(), cfg);
  const std::vector<bool> before = map.membership().bitmap();
  ASSERT_TRUE(map.membership().set_live(7, false));
  std::uint64_t changed = 0;
  for (cdn::ContentId id = 0; id < kCatalog; ++id) {
    if (map.replicas(id) != map.replicas_under(id, before)) ++changed;
  }
  // The mod-live-count strawman renumbers nearly the whole catalog on a
  // single flip -- the pathology the jump policy exists to avoid.
  EXPECT_GT(changed, kCatalog * 9 / 10);
}

TEST(PlacementMapTest, PlaneDiversityHoldsOnEveryPreset) {
  for (const std::string& name : orbit::constellation_preset_names()) {
    const orbit::WalkerConstellation c(orbit::multi_shell_preset(name));
    PlacementMapConfig cfg;
    cfg.replicas = std::min<std::uint32_t>(4, c.plane_count());
    const PlacementMap map(c, cfg);
    for (cdn::ContentId id = 0; id < 500; ++id) {
      const auto holders = map.replicas(id);
      std::set<std::uint32_t> planes;
      for (const std::uint32_t sat : holders) planes.insert(c.plane_of(sat));
      EXPECT_EQ(planes.size(), holders.size())
          << "plane collision on preset " << name << ", object " << id;
    }
  }
}

TEST(PlacementMapTest, PhaseDiversityAlsoSeparatesInPlaneSlots) {
  const orbit::WalkerConstellation& c = shell1();
  PlacementMapConfig cfg;
  cfg.diversity = ReplicaDiversity::kPhase;
  const PlacementMap map(c, cfg);
  for (cdn::ContentId id = 0; id < 500; ++id) {
    const auto holders = map.replicas(id);
    std::set<std::uint32_t> planes;
    std::set<std::uint32_t> slots;
    for (const std::uint32_t sat : holders) {
      planes.insert(c.plane_of(sat));
      slots.insert(c.index_of(sat).in_plane);
    }
    EXPECT_EQ(planes.size(), holders.size());
    EXPECT_EQ(slots.size(), holders.size());
  }
}

TEST(PlacementMapTest, ErasureAccounting) {
  PlacementMapConfig cfg;
  cfg.policy = PlacementPolicy::kJumpEc;
  const PlacementMap map(shell1(), cfg);
  EXPECT_EQ(map.placements_per_object(), 6u);  // 4 data + 2 parity fragments
  EXPECT_EQ(map.min_live_for_read(), 4u);
  EXPECT_EQ(map.replicas(1).size(), 6u);
  EXPECT_NEAR(map.stored_bytes(item(1, 100.0)).value(), 25.0, 1e-9);
  EXPECT_NEAR(cfg.ec.overhead(), 1.5, 1e-9);
}

TEST(PlacementMapTest, PlaceInsertsIntoEveryHolder) {
  const orbit::WalkerConstellation& c = shell1();
  FleetConfig fleet_cfg;
  fleet_cfg.capacity_per_satellite = Megabytes{1000.0};
  SatelliteFleet fleet(c.size(), fleet_cfg);
  const PlacementMap map(c, {});
  map.place(fleet, item(42), kNow);
  for (const std::uint32_t sat : map.replicas(42)) {
    EXPECT_TRUE(fleet.cache(sat).contains(42));
  }
}

TEST(PlacementMapTest, PerPlaneHolderOrderIsPinned) {
  // FNV-1a over the holder lists of ids 0..999, recorded from the standalone
  // k-copies-per-plane implementation this policy replaced.  The order is
  // load-bearing: prewarm inserts in holder order, so it drives LRU state
  // and through it every published load checksum.
  struct Golden {
    const char* preset;
    std::uint32_t copies;
    std::uint32_t stride;
    std::uint64_t digest;
  };
  for (const Golden& g : {Golden{"shell1", 4, 1, 0x54c50c9ce16ca04dULL},
                          Golden{"starlink-4shell", 4, 8, 0x8b01f41897192fb4ULL}}) {
    const orbit::WalkerConstellation c(orbit::multi_shell_preset(g.preset));
    const PlacementMap map(c, {.policy = PlacementPolicy::kPerPlane,
                               .replicas = g.copies,
                               .plane_stride = g.stride});
    des::Fnv1aChecksum sum;
    for (cdn::ContentId id = 0; id < 1000; ++id) {
      const auto holders = map.replicas(id);
      ASSERT_EQ(holders.size(), map.placements_per_object()) << g.preset;
      for (const std::uint32_t sat : holders) sum.add(static_cast<double>(sat));
    }
    EXPECT_EQ(sum.digest(), g.digest) << g.preset;
    EXPECT_EQ(map.min_live_for_read(), 1u);
    EXPECT_DOUBLE_EQ(map.stored_bytes(item(1)).value(), item(1).size.value());
  }
}

TEST(PlacementMapTest, LoadSkewAndHopStats) {
  const PlacementMap map(shell1(), {});
  const auto skew = map.load_skew(kCatalog);
  const double expected_mean =
      static_cast<double>(kCatalog) * 4.0 / static_cast<double>(shell1().size());
  EXPECT_NEAR(skew.mean, expected_mean, 1e-9);
  EXPECT_GE(skew.max, skew.p99);
  EXPECT_GE(skew.p99_over_mean(), 1.0);
  des::Rng rng(42);
  const auto hops = map.analyze(200, kCatalog, rng);
  EXPECT_GT(hops.mean_hops, 0.0);
  EXPECT_GE(hops.p99_hops, hops.mean_hops);
  EXPECT_GE(static_cast<double>(hops.max_hops), hops.p99_hops);
}

TEST(RepairDaemonMapMode, DeltaRepairMovesOnlyTheDelta) {
  const orbit::WalkerConstellation& c = shell1();
  FleetConfig fleet_cfg;
  fleet_cfg.capacity_per_satellite = Megabytes{100'000.0};
  SatelliteFleet fleet(c.size(), fleet_cfg);
  PlacementMap map(c, {});
  std::vector<cdn::ContentItem> catalog;
  for (cdn::ContentId id = 0; id < 300; ++id) catalog.push_back(item(id));
  for (const cdn::ContentItem& it : catalog) map.place(fleet, it, kNow);

  RepairDaemon daemon(fleet, map, catalog);
  const RepairReport clean = daemon.run_once(kNow);
  EXPECT_EQ(clean.under_replicated, 0u);
  EXPECT_EQ(clean.moved, 0u);
  EXPECT_EQ(clean.bytes_moved_mb, 0.0);

  const std::vector<bool> before = map.membership().bitmap();
  const std::uint32_t failed = map.replicas(0)[0];  // holds at least object 0
  ASSERT_TRUE(map.membership().set_live(failed, false));
  std::uint64_t displaced = 0;
  for (const cdn::ContentItem& it : catalog) {
    displaced += holds_sat(map.replicas_under(it.id, before), failed) ? 1 : 0;
  }
  ASSERT_GE(displaced, 1u);

  const RepairReport delta = daemon.run_once(kNow);
  EXPECT_EQ(delta.moved, displaced);          // one new home per displaced copy
  EXPECT_EQ(delta.evicted_stale, displaced);  // the failed holder is dropped
  EXPECT_NEAR(delta.bytes_moved_mb, 10.0 * static_cast<double>(displaced), 1e-9);

  // A follow-up scan with no membership change moves nothing.
  const RepairReport quiet = daemon.run_once(kNow);
  EXPECT_EQ(quiet.moved, 0u);
  EXPECT_EQ(quiet.under_replicated, 0u);
  EXPECT_EQ(quiet.bytes_moved_mb, 0.0);
}

}  // namespace
}  // namespace spacecdn::space
