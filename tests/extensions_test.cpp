// Tests for the section-5 extension systems: handover tracking, thermal
// duty-cycle scheduling, Space VMs, geo-blocking exposure, and multi-tenant
// (MetaCDN) caches.
#include <gtest/gtest.h>

#include <set>

#include "cdn/multitenant.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "lsn/handover.hpp"
#include "measurement/geoblocking.hpp"
#include "spacecdn/space_vm.hpp"
#include "spacecdn/thermal.hpp"
#include "util/error.hpp"

namespace spacecdn {
namespace {

const orbit::WalkerConstellation& shell1() {
  static const orbit::WalkerConstellation shell(orbit::starlink_shell1());
  return shell;
}

// ---------------------------------------------------------------- handover

TEST(Handover, TimelineCoversWindowContiguously) {
  const lsn::HandoverTracker tracker(shell1());
  const geo::GeoPoint london{51.51, -0.13, 0.0};
  const Milliseconds end = Milliseconds::from_minutes(10.0);
  const auto timeline = tracker.timeline(london, Milliseconds{0.0}, end);
  ASSERT_FALSE(timeline.empty());
  EXPECT_DOUBLE_EQ(timeline.front().start.value(), 0.0);
  EXPECT_DOUBLE_EQ(timeline.back().end.value(), end.value());
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(timeline[i].start.value(), timeline[i - 1].end.value());
    EXPECT_NE(timeline[i].satellite, timeline[i - 1].satellite);  // coalesced
  }
}

TEST(Handover, HandoversWithinMinutes) {
  // Over 20 minutes a terminal must change satellites at least once.
  const lsn::HandoverTracker tracker(shell1());
  const geo::GeoPoint sydney{-33.87, 151.21, 0.0};
  const auto stats =
      tracker.analyze(sydney, Milliseconds{0.0}, Milliseconds::from_minutes(20.0));
  EXPECT_GE(stats.handovers, 1u);
  EXPECT_GT(stats.coverage_fraction, 0.95);
  EXPECT_LT(stats.mean_dwell.value(), Milliseconds::from_minutes(12.0).value());
}

TEST(Handover, PolarTerminalSeesOutage) {
  const lsn::HandoverTracker tracker(shell1());
  const auto stats = tracker.analyze({89.0, 0.0, 0.0}, Milliseconds{0.0},
                                     Milliseconds::from_minutes(5.0));
  EXPECT_DOUBLE_EQ(stats.coverage_fraction, 0.0);
  EXPECT_GT(stats.outage_intervals, 0u);
}

// ------------------------------------------------------------------ thermal

TEST(Thermal, IdleFleetStaysAtAmbient) {
  space::ThermalModel model(10, {});
  model.advance(Milliseconds::from_minutes(60.0), std::vector<bool>(10, false));
  for (std::uint32_t s = 0; s < 10; ++s) {
    EXPECT_NEAR(model.temperature(s), model.config().ambient_c, 1e-6);
  }
  EXPECT_EQ(model.violations(), 0u);
}

TEST(Thermal, ContinuousServingApproachesEquilibriumAndViolates) {
  // Paper: "the overall temperature only exceeds the threshold after hours
  // of continuous computation".
  space::ThermalModel model(4, {});
  const std::vector<bool> all_serving(4, true);
  double minutes = 0.0;
  while (model.violations() == 0 && minutes < 600.0) {
    model.advance(Milliseconds::from_minutes(5.0), all_serving);
    minutes += 5.0;
  }
  EXPECT_GT(minutes, 30.0);   // does not violate immediately
  EXPECT_LT(minutes, 600.0);  // but does violate eventually
}

TEST(Thermal, CoolingAfterServingRecovers) {
  space::ThermalModel model(1, {});
  model.advance(Milliseconds::from_minutes(120.0), {true});
  const double hot = model.temperature(0);
  model.advance(Milliseconds::from_minutes(120.0), {false});
  EXPECT_LT(model.temperature(0), hot);
}

TEST(Thermal, CoolestFirstAvoidsViolations) {
  des::Rng rng_a(1), rng_b(1);
  space::ThermalModel random_model(200, {});
  space::ThermalModel cool_model(200, {});
  const space::ThermalScheduler random_sched(space::ThermalScheduler::Policy::kRandom);
  const space::ThermalScheduler cool_sched(
      space::ThermalScheduler::Policy::kCoolestFirst);

  // High duty fraction for many long slots: random scheduling overheats some
  // satellites by re-picking them; coolest-first rotates them.
  const auto random_report = run_thermal_schedule(
      random_model, random_sched, 0.6, 48, Milliseconds::from_minutes(15.0), rng_a);
  const auto cool_report = run_thermal_schedule(
      cool_model, cool_sched, 0.6, 48, Milliseconds::from_minutes(15.0), rng_b);

  EXPECT_LE(cool_report.violation_slot_count, random_report.violation_slot_count);
  EXPECT_LE(cool_report.peak_temperature_c,
            cool_model.config().max_safe_c + 1.0);
  EXPECT_NEAR(cool_report.mean_served_fraction, 0.6, 0.15);
}

TEST(Thermal, SchedulerReportsShortfallWhenAllHot) {
  space::ThermalModel model(10, {});
  // Heat everyone far past the eligibility margin.
  for (int i = 0; i < 40; ++i) {
    model.advance(Milliseconds::from_minutes(30.0), std::vector<bool>(10, true));
  }
  des::Rng rng(2);
  const space::ThermalScheduler sched(space::ThermalScheduler::Policy::kCoolestFirst);
  const auto result = sched.select(model, 0.5, rng);
  EXPECT_TRUE(result.serving.empty());
  EXPECT_EQ(result.shortfall, 5u);
}

// ----------------------------------------------------------------- space VM

TEST(SpaceVm, MigrationsFollowHandovers) {
  const space::SpaceVmOrchestrator orchestrator(shell1(), {});
  des::Rng rng(3);
  const geo::GeoPoint area = data::location(data::city("Sao Paulo"));
  const auto events = orchestrator.plan_migrations(area, Milliseconds{0.0},
                                                   Milliseconds::from_minutes(30.0), rng);
  const lsn::HandoverTracker tracker(shell1());
  const auto stats =
      tracker.analyze(area, Milliseconds{0.0}, Milliseconds::from_minutes(30.0));
  EXPECT_EQ(events.size(), stats.handovers);
  for (const auto& e : events) {
    EXPECT_NE(e.from_satellite, e.to_satellite);
    EXPECT_GT(e.switchover.value(), 0.0);
  }
}

TEST(SpaceVm, TransferTimeComposesPropagationAndTransmission) {
  space::VmConfig cfg;
  cfg.isl_bandwidth = Mbps{800.0};
  const space::SpaceVmOrchestrator orchestrator(shell1(), cfg);
  // 100 MB at 800 Mbps = 1 s transmission; 1500 km at c ~ 5 ms propagation.
  const Milliseconds t =
      orchestrator.transfer_time(Megabytes{100.0}, Kilometers{1500.0});
  EXPECT_NEAR(t.value(), 1005.0, 1.0);
}

TEST(SpaceVm, SeamlessOperationContinuity) {
  // The design goal: "providing seamless operations" -- switchovers of a
  // ~12 MB residual over multi-Gbps ISLs cost well under a second each, so
  // continuity stays high over an hour.
  const space::SpaceVmOrchestrator orchestrator(shell1(), {});
  des::Rng rng(4);
  const geo::GeoPoint area = data::location(data::city("London"));
  const auto report = orchestrator.run(area, Milliseconds{0.0},
                                       Milliseconds::from_minutes(60.0), rng);
  EXPECT_GT(report.migrations, 2u);
  EXPECT_GT(report.continuity, 0.99);
  EXPECT_LT(report.mean_switchover.value(), 500.0);
  EXPECT_GT(report.sync_traffic.value(), 0.0);
}

TEST(SpaceVm, RejectsBadConfig) {
  space::VmConfig cfg;
  cfg.residual_dirty_fraction = 1.5;
  EXPECT_THROW(space::SpaceVmOrchestrator(shell1(), cfg), ConfigError);
}

// -------------------------------------------------------------- geoblocking

TEST(GeoBlocking, MozambiqueAppearsGerman) {
  const lsn::GroundSegment ground;
  const measurement::GeoBlockingStudy study(ground);
  for (const auto& row : study.analyze()) {
    if (row.country_code == "MZ") {
      EXPECT_EQ(row.apparent_country_code, "DE");
      EXPECT_TRUE(row.country_mismatch);
      EXPECT_TRUE(row.region_mismatch);
      EXPECT_GT(row.displacement.value(), 6000.0);
      return;
    }
  }
  FAIL() << "Mozambique missing from the study";
}

TEST(GeoBlocking, LocalPopCountriesAreNotExposed) {
  const lsn::GroundSegment ground;
  const measurement::GeoBlockingStudy study(ground);
  for (const auto& row : study.analyze()) {
    if (row.country_code == "DE" || row.country_code == "JP" ||
        row.country_code == "US") {
      EXPECT_FALSE(row.country_mismatch) << row.country_code;
    }
  }
}

TEST(GeoBlocking, SummaryCountsMismatches) {
  const lsn::GroundSegment ground;
  const measurement::GeoBlockingStudy study(ground);
  const auto summary = study.summarize();
  EXPECT_GE(summary.countries, 55u);
  // Only 12-ish countries host PoPs, so most are geolocated elsewhere.
  EXPECT_GT(summary.with_country_mismatch, summary.countries / 2);
  // Cross-continent exposure is the severe case (licensing regions).
  EXPECT_GE(summary.with_region_mismatch, 8u);
  EXPECT_GT(summary.mean_displacement.value(), 500.0);
}

// -------------------------------------------------------------- multitenant

TEST(MultiTenant, SharesMustBeValid) {
  using cdn::Tenant;
  EXPECT_THROW(cdn::MultiTenantCache(Megabytes{100.0}, {}, cdn::TenancyMode::kShared),
               ConfigError);
  EXPECT_THROW(cdn::MultiTenantCache(Megabytes{100.0},
                                     {Tenant{"a", 0.7}, Tenant{"b", 0.5}},
                                     cdn::TenancyMode::kShared),
               ConfigError);
}

TEST(MultiTenant, TenantsAreIsolatedInBothModes) {
  using cdn::Tenant;
  for (const auto mode : {cdn::TenancyMode::kPartitioned, cdn::TenancyMode::kShared}) {
    cdn::MultiTenantCache cache(Megabytes{100.0}, {Tenant{"a", 0.5}, Tenant{"b", 0.5}},
                                mode);
    const cdn::ContentItem obj{42, Megabytes{1.0}, data::Region::kEurope};
    EXPECT_FALSE(cache.serve(0, obj, Milliseconds{0.0}));  // miss, admitted
    EXPECT_TRUE(cache.serve(0, obj, Milliseconds{0.0}));   // hit
    // Tenant b requesting the same id must NOT hit tenant a's copy.
    EXPECT_FALSE(cache.serve(1, obj, Milliseconds{0.0})) << to_string(mode);
  }
}

TEST(MultiTenant, PerTenantStatsAccumulate) {
  using cdn::Tenant;
  cdn::MultiTenantCache cache(Megabytes{100.0}, {Tenant{"a", 0.6}, Tenant{"b", 0.4}},
                              cdn::TenancyMode::kPartitioned);
  const cdn::ContentItem obj{1, Megabytes{1.0}, data::Region::kAsia};
  (void)cache.serve(0, obj, Milliseconds{0.0});
  (void)cache.serve(0, obj, Milliseconds{0.0});
  EXPECT_EQ(cache.tenant_stats(0).hits, 1u);
  EXPECT_EQ(cache.tenant_stats(0).misses, 1u);
  EXPECT_EQ(cache.tenant_stats(1).hits, 0u);
}

TEST(MultiTenant, SharingBeatsPartitioningForBurstyTenants) {
  // Statistical multiplexing: a tenant whose demand exceeds its purchased
  // share benefits from the shared pool while the other tenant is quiet.
  using cdn::Tenant;
  des::Rng rng(5);
  const cdn::ContentCatalog catalog({.object_count = 4000}, rng);
  const cdn::RegionalPopularity pop(catalog.size(), {});

  const std::vector<Tenant> tenants{Tenant{"busy", 0.5}, Tenant{"quiet", 0.5}};
  cdn::MultiTenantCache partitioned(Megabytes{2000.0}, tenants,
                                    cdn::TenancyMode::kPartitioned);
  cdn::MultiTenantCache shared(Megabytes{2000.0}, tenants, cdn::TenancyMode::kShared);

  des::Rng workload(6);
  for (int i = 0; i < 30000; ++i) {
    const auto id = pop.sample(data::Region::kEurope, workload);
    const auto& item = catalog.item(id);
    // 95% of requests come from the busy tenant.
    const std::size_t tenant = workload.chance(0.95) ? 0 : 1;
    (void)partitioned.serve(tenant, item, Milliseconds{static_cast<double>(i)});
    (void)shared.serve(tenant, item, Milliseconds{static_cast<double>(i)});
  }
  EXPECT_GT(shared.tenant_stats(0).hit_rate(),
            partitioned.tenant_stats(0).hit_rate());
}

}  // namespace
}  // namespace spacecdn
