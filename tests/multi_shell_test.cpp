// Multi-shell constellation invariants: global-id addressing, grid-ISL shell
// containment, spatial-index/brute-force equivalence, bit-exact incremental
// advance, the lowest-id serving tie-break, derived coverage latitudes, and
// the router's epoch-keyed landing-list refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "des/random.hpp"
#include "geo/visibility.hpp"
#include "lsn/starlink.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/walker.hpp"
#include "sim/scenario.hpp"
#include "util/error.hpp"

namespace spacecdn::orbit {
namespace {

const std::vector<std::string>& all_presets() { return constellation_preset_names(); }

TEST(MultiShellDesignTest, PresetSizes) {
  EXPECT_EQ(multi_shell_preset("shell1").total_satellites(), 1584u);
  EXPECT_EQ(multi_shell_preset("test-shell").total_satellites(), 64u);
  EXPECT_EQ(multi_shell_preset("starlink-4shell").total_satellites(), 4236u);
  EXPECT_EQ(multi_shell_preset("gen2-10k").total_satellites(), 9996u);
  EXPECT_THROW((void)multi_shell_preset("shell5"), ConfigError);
}

TEST(MultiShellDesignTest, SingleShellImplicitConversionKeepsIds) {
  // Pre-multi-shell call sites construct from a bare WalkerDesign; ids and
  // structure must match the historical single-shell layout.
  const WalkerConstellation single(starlink_shell1());
  EXPECT_EQ(single.shell_count(), 1u);
  EXPECT_EQ(single.size(), 1584u);
  EXPECT_EQ(single.plane_count(), 72u);
  EXPECT_EQ(single.id_of({3, 7}), 3u * 22u + 7u);
}

TEST(MultiShellDesignTest, IdRoundTripAllPresets) {
  for (const std::string& name : all_presets()) {
    const WalkerConstellation c(multi_shell_preset(name));
    for (std::uint32_t id = 0; id < c.size(); ++id) {
      const SatelliteIndex idx = c.index_of(id);
      EXPECT_EQ(c.id_of(idx), id) << name << " id " << id;
      EXPECT_EQ(c.shell_of(id), idx.shell) << name << " id " << id;
      EXPECT_EQ(id, c.shell_base(idx.shell) +
                        idx.plane * c.shell(idx.shell).sats_per_plane + idx.in_plane)
          << name << " id " << id;
      // Global-plane addressing agrees with the shell-local view.
      const std::uint32_t gp = c.plane_of(id);
      EXPECT_EQ(c.plane_size(gp), c.shell(idx.shell).sats_per_plane);
      EXPECT_EQ(c.plane_sat(gp, idx.in_plane), id) << name << " id " << id;
    }
    // Planes partition the id space in order.
    std::uint32_t total = 0;
    for (std::uint32_t p = 0; p < c.plane_count(); ++p) total += c.plane_size(p);
    EXPECT_EQ(total, c.size()) << name;
  }
}

TEST(MultiShellDesignTest, GridNeighborsNeverCrossShells) {
  for (const std::string& name : all_presets()) {
    const WalkerConstellation c(multi_shell_preset(name));
    for (std::uint32_t id = 0; id < c.size(); ++id) {
      for (const std::uint32_t n : c.grid_neighbors(id)) {
        ASSERT_LT(n, c.size());
        EXPECT_EQ(c.shell_of(n), c.shell_of(id))
            << name << ": grid link " << id << " -> " << n << " crosses shells";
      }
    }
  }
}

TEST(MultiShellEphemerisTest, IndexedQueriesMatchBruteForceAllPresets) {
  for (const std::string& name : all_presets()) {
    const WalkerConstellation c(multi_shell_preset(name));
    const EphemerisSnapshot snapshot(c, Milliseconds::from_minutes(17.0));
    des::Rng rng(des::mix_seed(42, c.size()));
    for (int i = 0; i < 200; ++i) {
      const geo::GeoPoint ground{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0),
                                 0.0};
      for (const double min_elev : {0.0, 10.0, 25.0, 40.0}) {
        const auto indexed = snapshot.visible_satellites(ground, min_elev);
        const auto scanned = snapshot.visible_satellites_scan(ground, min_elev);
        ASSERT_EQ(indexed, scanned)
            << name << " lat " << ground.lat_deg << " lon " << ground.lon_deg
            << " elev " << min_elev;
        EXPECT_EQ(snapshot.serving_satellite(ground, min_elev),
                  snapshot.serving_satellite_scan(ground, min_elev))
            << name << " lat " << ground.lat_deg << " lon " << ground.lon_deg;
        // Serving rank order: by scalar elevation, highest first, ties to
        // the lowest id (a stable sort of the ascending scan).
        auto ranked = scanned;
        std::stable_sort(ranked.begin(), ranked.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return geo::elevation_angle_deg(ground, snapshot.position(a)) >
                                  geo::elevation_angle_deg(ground, snapshot.position(b));
                         });
        const auto got = snapshot.ranked_visible_satellites(ground, min_elev);
        EXPECT_EQ(got, ranked) << name << " lat " << ground.lat_deg << " lon "
                               << ground.lon_deg << " elev " << min_elev;
        if (!got.empty()) {
          EXPECT_EQ(got.front(), snapshot.serving_satellite(ground, min_elev));
        }
      }
    }
  }
}

TEST(MultiShellEphemerisTest, AdvanceIsBitIdenticalToFreshSnapshot) {
  for (const std::string& name : {std::string("test-shell"), std::string("shell1"),
                                  std::string("starlink-4shell")}) {
    const WalkerConstellation c(multi_shell_preset(name));
    EphemerisSnapshot advanced(c, Milliseconds{0.0});
    // Wander through intermediate times, then land on the probe time: any
    // accumulated state would show up against the fresh snapshot.
    for (const double t_min : {3.0, 11.5, 47.25}) {
      advanced.advance(Milliseconds::from_minutes(t_min));
    }
    const Milliseconds probe = Milliseconds::from_minutes(47.25);
    const EphemerisSnapshot fresh(c, probe);
    ASSERT_EQ(advanced.time().value(), probe.value());
    for (std::uint32_t id = 0; id < c.size(); ++id) {
      const geo::Ecef a = advanced.position(id);
      const geo::Ecef f = fresh.position(id);
      ASSERT_EQ(a.x, f.x) << name << " id " << id;
      ASSERT_EQ(a.y, f.y) << name << " id " << id;
      ASSERT_EQ(a.z, f.z) << name << " id " << id;
    }
  }
}

TEST(MultiShellEphemerisTest, EpochIsProcessGloballyMonotonic) {
  const WalkerConstellation c(multi_shell_preset("test-shell"));
  EphemerisSnapshot a(c, Milliseconds{0.0});
  const std::uint64_t e0 = a.epoch();
  a.advance(Milliseconds::from_minutes(1.0));
  const std::uint64_t e1 = a.epoch();
  EXPECT_GT(e1, e0);
  // Advancing back to an already-seen time must still mint a fresh epoch:
  // {pointer, time} pairs recur, epochs never do.
  a.advance(Milliseconds{0.0});
  EXPECT_GT(a.epoch(), e1);
  const EphemerisSnapshot b(c, Milliseconds{0.0});
  EXPECT_GT(b.epoch(), a.epoch());
}

TEST(MultiShellEphemerisTest, ServingSatelliteTiesBreakToLowestId) {
  // Two identical shells stacked: every satellite of shell 1 flies exactly on
  // top of its shell-0 twin (bit-identical propagation math), so every query
  // with coverage is an exact elevation tie.  The serving pick must always be
  // the shell-0 (lower) id, from both the indexed and the brute-force path.
  const WalkerConstellation twins(
      MultiShellDesign{{test_shell(), test_shell()}});
  const std::uint32_t half = twins.shell_base(1);
  const EphemerisSnapshot snapshot(twins, Milliseconds::from_minutes(9.0));
  des::Rng rng(7);
  int covered = 0;
  for (int i = 0; i < 300; ++i) {
    const geo::GeoPoint ground{rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0),
                               0.0};
    const auto indexed = snapshot.serving_satellite(ground, 25.0);
    const auto scanned = snapshot.serving_satellite_scan(ground, 25.0);
    EXPECT_EQ(indexed, scanned);
    if (!indexed) continue;
    ++covered;
    EXPECT_LT(*indexed, half) << "tie broke to the higher-id twin";
    // The twin is genuinely co-located and visible.
    const auto visible = snapshot.visible_satellites(ground, 25.0);
    EXPECT_TRUE(std::find(visible.begin(), visible.end(), *indexed + half) !=
                visible.end());
  }
  EXPECT_GT(covered, 0);
}

TEST(MultiShellCoverageTest, DerivedCoverageLatitudes) {
  // The paper's Shell-1 experiments pin the published 56 deg band exactly.
  EXPECT_EQ(sim::derived_coverage_lat_deg("shell1"), sim::kShell1CoverageLatDeg);
  EXPECT_EQ(sim::derived_coverage_lat_deg("test-shell"), sim::kShell1CoverageLatDeg);
  // The Gen1 stack includes the 97.6-deg polar shell: global coverage.
  EXPECT_EQ(sim::derived_coverage_lat_deg("starlink-4shell"), 90.0);
  EXPECT_EQ(sim::derived_coverage_lat_deg("gen2-10k"), 90.0);
  // The geometric derivation itself: one 53-deg shell reaches inclination
  // plus the coverage half-angle, strictly between 53 and 90.
  const double shell1_limit =
      coverage_lat_limit_deg(multi_shell_preset("shell1"),
                             lsn::StarlinkConfig{}.user_min_elevation_deg);
  EXPECT_GT(shell1_limit, 53.0);
  EXPECT_LT(shell1_limit, 90.0);
}

TEST(MultiShellRouterTest, LandingListsRefreshAcrossInPlaceAdvance) {
  // Regression for the router's stale-landing-list hazard: the network keeps
  // one router across in-place ephemeris advances, so its per-gateway landing
  // candidates must refresh whenever the snapshot epoch moves.  Routes from a
  // long-lived network must match a network freshly built at the same time.
  lsn::StarlinkConfig cfg;
  lsn::StarlinkNetwork net(cfg);
  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto& country = data::country("MZ");

  const auto at_zero = net.router().route_to_pop(client, country);
  ASSERT_TRUE(at_zero.has_value());

  const Milliseconds later = Milliseconds::from_minutes(5.0);
  net.set_time(later);
  const auto advanced = net.router().route_to_pop(client, country);
  ASSERT_TRUE(advanced.has_value());

  lsn::StarlinkNetwork fresh(cfg);
  fresh.set_time(later);
  const auto rebuilt = fresh.router().route_to_pop(client, country);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(advanced->serving_satellite, rebuilt->serving_satellite);
  EXPECT_EQ(advanced->landing_satellite, rebuilt->landing_satellite);
  EXPECT_EQ(advanced->gateway, rebuilt->gateway);
  EXPECT_EQ(advanced->one_way().value(), rebuilt->one_way().value());

  // Returning to t=0 reproduces the original route exactly -- and must NOT be
  // served from lists cached at t=5min (same snapshot address, different
  // geometry: the ABA shape a {pointer, time} cache key gets wrong).
  net.set_time(Milliseconds{0.0});
  const auto back = net.router().route_to_pop(client, country);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serving_satellite, at_zero->serving_satellite);
  EXPECT_EQ(back->landing_satellite, at_zero->landing_satellite);
  EXPECT_EQ(back->one_way().value(), at_zero->one_way().value());
}

}  // namespace
}  // namespace spacecdn::orbit
