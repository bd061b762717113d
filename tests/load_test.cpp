// Load-engine tests: burst traces, traffic rates, LinkQueue (FIFO + DRR),
// admission control, the scenario-key mapping, and end-to-end LoadRunner
// determinism on the reduced test-shell constellation.
#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.hpp"
#include "des/simulator.hpp"
#include "faults/schedule.hpp"
#include "load/capacity.hpp"
#include "load/degradation.hpp"
#include "load/load_runner.hpp"
#include "load/traffic.hpp"
#include "lsn/starlink.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace {

using namespace spacecdn;

// ---------------------------------------------------------------------------
// Burst traces
// ---------------------------------------------------------------------------

TEST(BurstTrace, ParsesSecondsToMultiplierPairs) {
  const auto steps = load::parse_burst_trace("0:1,30:4,60:1");
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_DOUBLE_EQ(steps[0].start.value(), 0.0);
  EXPECT_DOUBLE_EQ(steps[0].multiplier, 1.0);
  EXPECT_DOUBLE_EQ(steps[1].start.value(), 30'000.0);
  EXPECT_DOUBLE_EQ(steps[1].multiplier, 4.0);
  EXPECT_DOUBLE_EQ(steps[2].start.value(), 60'000.0);
}

TEST(BurstTrace, EmptyStringMeansConstantRate) {
  EXPECT_TRUE(load::parse_burst_trace("").empty());
}

TEST(BurstTrace, RejectsMalformedInput) {
  EXPECT_THROW((void)load::parse_burst_trace("0:1,oops"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace("0"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace("0:-2"), ConfigError);
  // Times must be strictly increasing.
  EXPECT_THROW((void)load::parse_burst_trace("10:1,10:2"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace("10:1,5:2"), ConfigError);
}

TEST(BurstTrace, RejectsTrailingAndEmptyPairs) {
  // A trailing comma leaves an empty pair; fail loudly instead of silently
  // truncating the schedule.
  EXPECT_THROW((void)load::parse_burst_trace("0:1,"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace(","), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace("0:1,,5:2"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace(":2"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace("5:"), ConfigError);
  // Partial-garbage numbers must not strtod-truncate silently either.
  EXPECT_THROW((void)load::parse_burst_trace("1x:2"), ConfigError);
  EXPECT_THROW((void)load::parse_burst_trace("1:2y"), ConfigError);
}

// ---------------------------------------------------------------------------
// TrafficModel
// ---------------------------------------------------------------------------

std::vector<sim::Shell1Client> test_clients() {
  // A handful of real cities keeps the regional popularity model happy.
  auto clients = sim::shell1_clients();
  clients.resize(8);
  return clients;
}

TEST(TrafficModel, CityRatesAreProportionalToPopulationAndSumToTotal) {
  load::TrafficConfig config;
  config.requests_per_second = 1000.0;
  const load::TrafficModel traffic(test_clients(), config);

  double sum = 0.0;
  for (std::size_t i = 0; i < traffic.clients().size(); ++i) {
    sum += traffic.city_rate_rps(i);
  }
  EXPECT_NEAR(sum, 1000.0, 1e-6);

  // Rates scale with metro population.
  const auto& clients = traffic.clients();
  for (std::size_t i = 1; i < clients.size(); ++i) {
    const double expected_ratio =
        clients[i].city->population_k / clients[0].city->population_k;
    EXPECT_NEAR(traffic.city_rate_rps(i) / traffic.city_rate_rps(0), expected_ratio,
                1e-9);
  }
}

TEST(TrafficModel, BurstScheduleIsPiecewiseConstant) {
  load::TrafficConfig config;
  config.burst = load::parse_burst_trace("0:1,10:4,20:0.5");
  const load::TrafficModel traffic(test_clients(), config);
  EXPECT_DOUBLE_EQ(traffic.rate_multiplier(Milliseconds::from_seconds(0.0)), 1.0);
  EXPECT_DOUBLE_EQ(traffic.rate_multiplier(Milliseconds::from_seconds(9.9)), 1.0);
  EXPECT_DOUBLE_EQ(traffic.rate_multiplier(Milliseconds::from_seconds(10.0)), 4.0);
  EXPECT_DOUBLE_EQ(traffic.rate_multiplier(Milliseconds::from_seconds(19.0)), 4.0);
  EXPECT_DOUBLE_EQ(traffic.rate_multiplier(Milliseconds::from_seconds(25.0)), 0.5);
}

TEST(TrafficModel, InterarrivalMeanMatchesCityRate) {
  load::TrafficConfig config;
  config.requests_per_second = 500.0;
  const load::TrafficModel traffic(test_clients(), config);
  const double rate = traffic.city_rate_rps(0);  // requests/second
  des::Rng rng(7);
  double total_s = 0.0;
  constexpr int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i) {
    total_s += traffic.next_interarrival(0, Milliseconds{0.0}, rng).seconds();
  }
  EXPECT_NEAR(total_s / kDraws, 1.0 / rate, 0.05 / rate);
}

TEST(TrafficModel, RegionalSurgeMultipliesOnlyInRegionAndWindow) {
  const auto clients = test_clients();
  load::TrafficConfig config;
  config.requests_per_second = 100.0;
  config.surge.center = {clients[0].city->lat_deg, clients[0].city->lon_deg, 0.0};
  config.surge.radius = Kilometers{50.0};
  config.surge.multiplier = 4.0;
  config.surge.start = Milliseconds::from_seconds(5.0);
  config.surge.duration = Milliseconds::from_seconds(10.0);
  const load::TrafficModel traffic(clients, config);

  // In region, inside the window.
  EXPECT_DOUBLE_EQ(traffic.surge_multiplier(0, Milliseconds::from_seconds(6.0)), 4.0);
  // In region but before/after the window.
  EXPECT_DOUBLE_EQ(traffic.surge_multiplier(0, Milliseconds::from_seconds(4.9)), 1.0);
  EXPECT_DOUBLE_EQ(traffic.surge_multiplier(0, Milliseconds::from_seconds(15.0)), 1.0);
  // A different metro (well outside the 50 km radius) never surges.
  EXPECT_DOUBLE_EQ(traffic.surge_multiplier(1, Milliseconds::from_seconds(6.0)), 1.0);

  // Disabled surge is the multiplicative identity everywhere.
  load::TrafficConfig plain;
  plain.requests_per_second = 100.0;
  const load::TrafficModel no_surge(clients, plain);
  EXPECT_DOUBLE_EQ(no_surge.surge_multiplier(0, Milliseconds::from_seconds(6.0)), 1.0);
}

TEST(TrafficModel, RejectsDegenerateConfigs) {
  load::TrafficConfig config;
  config.requests_per_second = 0.0;
  EXPECT_THROW((load::TrafficModel(test_clients(), config)), ConfigError);
  config.requests_per_second = 100.0;
  EXPECT_THROW((load::TrafficModel({}, config)), ConfigError);
}

// ---------------------------------------------------------------------------
// LinkQueue
// ---------------------------------------------------------------------------

TEST(LinkQueue, FifoSingleTransferSeesNoQueueing) {
  des::Simulator sim;
  load::LinkQueue queue(sim, Mbps{800.0});  // 100 MB/s -> 10 ms/MB
  Milliseconds wait{-1.0};
  Milliseconds completed{-1.0};
  queue.submit(Megabytes{1.0}, 0, [&](Milliseconds w) {
    wait = w;
    completed = sim.now();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(wait.value(), 0.0);
  EXPECT_DOUBLE_EQ(completed.value(),
                   transmission_delay(Megabytes{1.0}, Mbps{800.0}).value());
  EXPECT_EQ(queue.served(), 1u);
  EXPECT_DOUBLE_EQ(queue.carried().value(), 1.0);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(LinkQueue, FifoWaitsAccumulateInArrivalOrder) {
  des::Simulator sim;
  load::LinkQueue queue(sim, Mbps{800.0});  // 10 ms per MB
  std::vector<double> waits;
  for (int i = 0; i < 3; ++i) {
    queue.submit(Megabytes{1.0}, 0, [&](Milliseconds w) { waits.push_back(w.value()); });
  }
  EXPECT_EQ(queue.peak_depth(), 2u);  // one in service, two waiting
  sim.run();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_DOUBLE_EQ(waits[0], 0.0);
  EXPECT_DOUBLE_EQ(waits[1], 10.0);
  EXPECT_DOUBLE_EQ(waits[2], 20.0);
  EXPECT_DOUBLE_EQ(queue.busy_time().value(), 30.0);
  EXPECT_DOUBLE_EQ(queue.utilization(Milliseconds{60.0}), 0.5);
}

TEST(LinkQueue, DrrInterleavesClassesInsteadOfHeadOfLineBlocking) {
  des::Simulator sim;
  // Quantum of 1 MB: the elephant class drains one 1 MB segment per round,
  // so the mouse class's small objects are served between them.
  load::LinkQueue queue(sim, Mbps{800.0}, load::QueueDiscipline::kDrr, Megabytes{1.0});
  std::vector<int> order;
  // Class 0: four 1 MB segments, all enqueued first.
  for (int i = 0; i < 4; ++i) {
    queue.submit(Megabytes{1.0}, 0, [&order](Milliseconds) { order.push_back(0); });
  }
  // Class 1: four 1 MB segments enqueued behind them.
  for (int i = 0; i < 4; ++i) {
    queue.submit(Megabytes{1.0}, 1, [&order](Milliseconds) { order.push_back(1); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 8u);
  // Under FIFO the order would be 0,0,0,0,1,1,1,1.  DRR alternates rounds,
  // so class 1 finishes its first segment well before class 0 finishes all.
  const auto first_one = std::find(order.begin(), order.end(), 1);
  ASSERT_NE(first_one, order.end());
  EXPECT_LT(first_one - order.begin(), 4);
  EXPECT_EQ(queue.served(), 8u);
}

TEST(LinkQueue, RejectsNonPositiveCapacity) {
  des::Simulator sim;
  EXPECT_THROW((load::LinkQueue(sim, Mbps{0.0})), ConfigError);
}

TEST(QueueDiscipline, ParsesNames) {
  EXPECT_EQ(load::parse_queue_discipline("fifo"), load::QueueDiscipline::kFifo);
  EXPECT_EQ(load::parse_queue_discipline("drr"), load::QueueDiscipline::kDrr);
  EXPECT_THROW((void)load::parse_queue_discipline("lifo"), ConfigError);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionController, EnforcesPerSatelliteCap) {
  load::AdmissionController admission(4, 2);
  EXPECT_TRUE(admission.try_admit(0));
  EXPECT_TRUE(admission.try_admit(0));
  EXPECT_FALSE(admission.try_admit(0));  // satellite 0 full
  EXPECT_TRUE(admission.try_admit(1));   // other satellites unaffected
  EXPECT_EQ(admission.active(0), 2u);
  EXPECT_EQ(admission.admitted(), 3u);
  EXPECT_EQ(admission.rejected(), 1u);
  EXPECT_EQ(admission.peak_active(), 2u);

  admission.release(0);
  EXPECT_TRUE(admission.try_admit(0));  // slot freed
}

TEST(AdmissionController, RejectHookFiresWithContext) {
  load::AdmissionController admission(2, 1);
  std::uint32_t hook_satellite = 99;
  std::size_t hook_active = 0;
  admission.set_reject_hook([&](std::uint32_t satellite, std::size_t active) {
    hook_satellite = satellite;
    hook_active = active;
  });
  ASSERT_TRUE(admission.try_admit(1));
  EXPECT_FALSE(admission.try_admit(1));
  EXPECT_EQ(hook_satellite, 1u);
  EXPECT_EQ(hook_active, 1u);
}

TEST(AdmissionController, ZeroCapDisablesAdmissionControl) {
  load::AdmissionController admission(1, 0);
  for (int i = 0; i < 500; ++i) EXPECT_TRUE(admission.try_admit(0));
  EXPECT_EQ(admission.rejected(), 0u);
}

TEST(AdmissionController, RejectStormsCountOncePerRollingWindow) {
  load::AdmissionController admission(1, 1, /*reject_storm_threshold=*/3);
  ASSERT_TRUE(admission.try_admit(0, Milliseconds{0.0}));

  // Two rejections in the first 1 s window stay below the threshold.
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{10.0}));
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{20.0}));
  EXPECT_EQ(admission.storms(), 0u);
  // The third crosses the threshold: exactly one storm per window...
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{30.0}));
  EXPECT_EQ(admission.storms(), 1u);
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{40.0}));
  EXPECT_EQ(admission.storms(), 1u);
  // ...and a later window can trip again.
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{1'500.0}));
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{1'510.0}));
  EXPECT_EQ(admission.storms(), 1u);
  EXPECT_FALSE(admission.try_admit(0, Milliseconds{1'520.0}));
  EXPECT_EQ(admission.storms(), 2u);
}

// ---------------------------------------------------------------------------
// DegradationPolicy
// ---------------------------------------------------------------------------

TEST(DegradationPolicy, HotMarksExpireAndCountOncePerWindow) {
  load::DegradationConfig config;
  config.enabled = true;
  config.hot_window = Milliseconds{1'000.0};
  load::DegradationPolicy policy(4, config);

  EXPECT_FALSE(policy.hot(2, Milliseconds{0.0}));
  policy.on_reject(2, Milliseconds{0.0});
  EXPECT_TRUE(policy.hot(2, Milliseconds{999.0}));
  EXPECT_FALSE(policy.hot(2, Milliseconds{1'000.0}));
  EXPECT_FALSE(policy.hot(3, Milliseconds{500.0}));  // other satellites untouched
  EXPECT_EQ(policy.hot_marks(), 1u);

  // Re-marking inside an active window extends it without recounting.
  policy.on_reject(2, Milliseconds{500.0});
  EXPECT_EQ(policy.hot_marks(), 1u);
  EXPECT_TRUE(policy.hot(2, Milliseconds{1'200.0}));

  // A fresh mark after expiry is a new hot entry.
  policy.on_reject(2, Milliseconds{3'000.0});
  EXPECT_EQ(policy.hot_marks(), 2u);
}

// ---------------------------------------------------------------------------
// Scenario-key mapping
// ---------------------------------------------------------------------------

TEST(LoadConfig, ObjectSizePresetsDifferAndUnknownThrows) {
  const cdn::CatalogConfig web = load::object_size_preset("web");
  const cdn::CatalogConfig video = load::object_size_preset("video");
  const cdn::CatalogConfig mixed = load::object_size_preset("mixed");
  EXPECT_GT(web.object_count, video.object_count);
  EXPECT_LT(web.median_size.value(), video.median_size.value());
  EXPECT_EQ(mixed.object_count, 10'000u);
  EXPECT_THROW((void)load::object_size_preset("tape-archive"), ConfigError);
}

TEST(LoadConfig, FromSpecMapsScenarioKeys) {
  sim::ScenarioSpec spec;
  spec.constellation = "test-shell";
  spec.arrival_rate_rps = 321.0;
  spec.object_size_dist = "video";
  spec.link_capacity_scale = 0.5;
  spec.burst_trace = "0:1,5:2";
  spec.load_horizon_s = 3.0;
  spec.queue_discipline = "drr";
  spec.seed = 77;

  const load::LoadConfig config = load::load_config_from_spec(spec);
  EXPECT_DOUBLE_EQ(config.traffic.requests_per_second, 321.0);
  EXPECT_EQ(config.traffic.catalog.object_count, 2'000u);
  ASSERT_EQ(config.traffic.burst.size(), 2u);
  EXPECT_DOUBLE_EQ(config.horizon.seconds(), 3.0);
  EXPECT_EQ(config.capacity.discipline, load::QueueDiscipline::kDrr);
  EXPECT_EQ(config.seed, 77u);

  // Capacities come from the preset's annotations scaled by link-capacity.
  const lsn::StarlinkConfig preset = lsn::starlink_preset("test-shell");
  EXPECT_DOUBLE_EQ(config.capacity.satellite_downlink.value(),
                   preset.access.satellite_downlink_aggregate.value() * 0.5);
  EXPECT_DOUBLE_EQ(config.capacity.isl.value(), preset.isl.capacity.value() * 0.5);
}

TEST(LoadConfig, FromSpecMapsResilienceAndChaosKeys) {
  sim::ScenarioSpec spec;
  spec.constellation = "test-shell";
  spec.resilient_fetch = true;
  spec.request_deadline_ms = 350.0;
  spec.attempt_timeout_ms = 90.0;
  spec.hedge_delay_ms = 25.0;
  spec.backoff_jitter = 0.2;
  spec.breaker_threshold = 7;
  spec.breaker_cooldown_s = 2.0;
  spec.shed_to_ground = true;
  spec.chaos = "disaster-region";
  spec.chaos_surge = 3.0;
  spec.chaos_lat = 10.0;
  spec.chaos_lon = 20.0;
  spec.chaos_radius_km = 500.0;
  spec.chaos_start_s = 2.0;
  spec.chaos_duration_s = 4.0;

  const load::LoadConfig config = load::load_config_from_spec(spec);
  EXPECT_TRUE(config.resilient_fetch);
  EXPECT_DOUBLE_EQ(config.request_deadline.value(), 350.0);
  EXPECT_DOUBLE_EQ(config.resilience.deadline.value(), 350.0);
  EXPECT_DOUBLE_EQ(config.resilience.attempt_timeout.value(), 90.0);
  EXPECT_DOUBLE_EQ(config.resilience.hedge_delay.value(), 25.0);
  EXPECT_FALSE(config.hedge_auto);
  EXPECT_DOUBLE_EQ(config.resilience.backoff_jitter, 0.2);
  EXPECT_EQ(config.resilience.breaker.failure_threshold, 7u);
  EXPECT_DOUBLE_EQ(config.resilience.breaker.open_cooldown.seconds(), 2.0);
  EXPECT_TRUE(config.degradation.enabled);
  // The chaos surge window rides along for region-scoped chaos modes.
  EXPECT_TRUE(config.traffic.surge.enabled());
  EXPECT_DOUBLE_EQ(config.traffic.surge.multiplier, 3.0);
  EXPECT_DOUBLE_EQ(config.traffic.surge.start.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(config.traffic.surge.duration.seconds(), 4.0);

  // hedge-delay-ms = -1 switches to trailing-p99 auto mode.
  spec.hedge_delay_ms = -1.0;
  const load::LoadConfig auto_config = load::load_config_from_spec(spec);
  EXPECT_TRUE(auto_config.hedge_auto);

  // A constellation-wide storm has no epicentre, so no regional surge.
  spec.chaos = "solar-storm";
  const load::LoadConfig storm_config = load::load_config_from_spec(spec);
  EXPECT_FALSE(storm_config.traffic.surge.enabled());
}

// ---------------------------------------------------------------------------
// End-to-end LoadRunner on the reduced test shell
// ---------------------------------------------------------------------------

sim::ScenarioSpec load_test_spec() {
  sim::ScenarioSpec spec;
  spec.constellation = "test-shell";  // 8x8, cheap enough for unit tests
  spec.arrival_rate_rps = 400.0;
  spec.load_horizon_s = 2.0;
  spec.link_capacity_scale = 0.02;  // tight enough that queues actually form
  return spec;
}

load::LoadReport run_load(sim::World& world, const load::LoadConfig& config) {
  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  load::LoadRunner engine(world.network(), fleet, ground, world.clients(), config);
  return engine.run();
}

TEST(LoadRunner, SameSeedIsBitIdenticalAndSeedsMatter) {
  sim::World world(load_test_spec());
  const load::LoadConfig config = load::load_config_from_spec(world.spec());

  const load::LoadReport a = run_load(world, config);
  const load::LoadReport b = run_load(world, config);
  ASSERT_GT(a.completed, 0u);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.latency_ms.raw().size(), b.latency_ms.raw().size());
  for (std::size_t i = 0; i < a.latency_ms.raw().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.latency_ms.raw()[i], b.latency_ms.raw()[i]);
  }

  load::LoadConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  const load::LoadReport c = run_load(world, reseeded);
  EXPECT_NE(a.offered, c.offered);  // different arrival streams
}

TEST(LoadRunner, UnknownClientCountryThrows) {
  // The constructor resolves a country once per run of same-city clients; a
  // city whose country code is not in the table must still fail it.
  sim::World world(load_test_spec());
  static constexpr data::CityInfo kNowhere{"Nowhere", "ZZ", 0.0, 0.0, 100.0};
  std::vector<sim::Shell1Client> clients = world.clients();
  ASSERT_GE(clients.size(), 2u);
  clients.insert(clients.begin() + 1, sim::Shell1Client{&kNowhere, clients.size()});
  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  const load::LoadConfig config = load::load_config_from_spec(world.spec());
  EXPECT_THROW((load::LoadRunner(world.network(), fleet, ground, clients, config)),
               NotFoundError);
}

TEST(LoadRunner, ReportIsInternallyConsistent) {
  sim::World world(load_test_spec());
  const load::LoadConfig config = load::load_config_from_spec(world.spec());
  const load::LoadReport report = run_load(world, config);

  EXPECT_EQ(report.completed + report.rejected + report.no_coverage, report.offered);
  EXPECT_EQ(report.tier[0] + report.tier[1] + report.tier[2], report.completed);
  EXPECT_EQ(report.latency_ms.raw().size(), report.completed);
  EXPECT_EQ(report.queue_wait_ms.raw().size(), report.completed);
  EXPECT_GT(report.delivered.value(), 0.0);
  EXPECT_GT(report.goodput_mbps, 0.0);
  EXPECT_EQ(report.satellite_utilization.size(), world.constellation().size());
  for (const double u : report.satellite_utilization) EXPECT_GE(u, 0.0);
  // Latency includes queueing, so every sample dominates its queue wait.
  const auto& latency = report.latency_ms.raw();
  const auto& wait = report.queue_wait_ms.raw();
  for (std::size_t i = 0; i < latency.size(); ++i) {
    EXPECT_GE(latency[i], wait[i]);
  }
}

TEST(LoadRunner, HigherOfferedLoadDoesNotReduceQueueing) {
  sim::World world(load_test_spec());
  const load::LoadConfig base = load::load_config_from_spec(world.spec());
  load::LoadConfig heavy = base;
  heavy.traffic.requests_per_second *= 8.0;

  const load::LoadReport light_report = run_load(world, base);
  const load::LoadReport heavy_report = run_load(world, heavy);
  ASSERT_GT(light_report.completed, 0u);
  ASSERT_GT(heavy_report.completed, 0u);
  EXPECT_GE(heavy_report.queue_wait_ms.mean(), light_report.queue_wait_ms.mean());
  EXPECT_GE(heavy_report.max_utilization, light_report.max_utilization);
}

TEST(LoadRunner, RejectHookSeesAdmissionDrops) {
  sim::World world(load_test_spec());
  load::LoadConfig config = load::load_config_from_spec(world.spec());
  config.traffic.requests_per_second *= 16.0;  // deep overload
  config.capacity.max_transfers_per_satellite = 4;

  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  load::LoadRunner engine(world.network(), fleet, ground, world.clients(), config);
  std::uint64_t hook_fired = 0;
  engine.set_reject_hook([&](std::uint32_t, std::size_t) { ++hook_fired; });
  const load::LoadReport report = engine.run();
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(hook_fired, report.rejected);
  EXPECT_LE(report.peak_active_transfers, 4u);
}

TEST(LoadRunner, ResilientDeadlineAccountingIsConsistent) {
  sim::World world(load_test_spec());
  load::LoadConfig config = load::load_config_from_spec(world.spec());
  config.resilient_fetch = true;
  config.request_deadline = Milliseconds{40.0};  // tight: queueing makes many miss
  config.resilience.deadline = config.request_deadline;

  const load::LoadReport report = run_load(world, config);
  ASSERT_GT(report.completed, 0u);
  EXPECT_EQ(report.completed + report.rejected + report.no_coverage + report.failed,
            report.offered);
  EXPECT_GT(report.deadline_missed, 0u);
  EXPECT_LE(report.deadline_missed, report.completed);
  EXPECT_LE(report.abandoned, report.deadline_missed);
  const double miss = report.deadline_miss_fraction();
  EXPECT_GT(miss, 0.0);
  EXPECT_LE(miss, 1.0);

  // Without a deadline the SLO counters stay untouched.
  load::LoadConfig no_deadline = config;
  no_deadline.request_deadline = Milliseconds{0.0};
  no_deadline.resilience.deadline = Milliseconds{0.0};
  const load::LoadReport free_report = run_load(world, no_deadline);
  EXPECT_EQ(free_report.deadline_missed, 0u);
  EXPECT_EQ(free_report.abandoned, 0u);
  // Only hard losses (rejects / coverage gaps / exhausted fetches) remain in
  // the SLO-miss numerator once the deadline is lifted.
  EXPECT_DOUBLE_EQ(
      free_report.deadline_miss_fraction(),
      static_cast<double>(free_report.rejected + free_report.no_coverage +
                          free_report.failed) /
          static_cast<double>(free_report.offered));
}

TEST(LoadConfig, FromSpecMapsObservabilityKeys) {
  sim::ScenarioSpec spec;
  spec.constellation = "test-shell";
  spec.series_out = "series.csv";
  spec.series_interval_s = 0.5;
  spec.timeline_out = "timeline.jsonl";
  spec.slo_objective = 0.99;
  spec.slo_window_short_s = 2.0;
  spec.slo_window_long_s = 8.0;
  spec.slo_burn_threshold = 4.0;

  const load::LoadConfig config = load::load_config_from_spec(spec);
  EXPECT_DOUBLE_EQ(config.series_interval.value(), 500.0);
  EXPECT_TRUE(config.timeline);
  EXPECT_DOUBLE_EQ(config.slo.objective, 0.99);
  EXPECT_DOUBLE_EQ(config.slo.short_window.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(config.slo.long_window.seconds(), 8.0);
  EXPECT_DOUBLE_EQ(config.slo.burn_threshold, 4.0);

  // With no sink paths the recorder and timeline stay disabled (the
  // default-off guarantee behind the published checksums).
  sim::ScenarioSpec off;
  off.constellation = "test-shell";
  const load::LoadConfig off_config = load::load_config_from_spec(off);
  EXPECT_DOUBLE_EQ(off_config.series_interval.value(), 0.0);
  EXPECT_FALSE(off_config.timeline);
}

TEST(LoadRunner, SeriesWindowsSumToReportTotals) {
  sim::World world(load_test_spec());
  load::LoadConfig config = load::load_config_from_spec(world.spec());
  config.series_interval = Milliseconds{500.0};
  config.timeline = true;

  const load::LoadReport report = run_load(world, config);
  ASSERT_GT(report.completed, 0u);
  const obs::TimeSeries& series = report.series;
  ASSERT_FALSE(series.empty());
  // 2 s horizon / 0.5 s windows; the drain phase past the arrival horizon
  // closes no extra windows (the recorder stops at the arrival horizon).
  EXPECT_EQ(series.windows.size(), 4u);

  const auto column = [&](const char* name) {
    const auto it = std::find(series.columns.begin(), series.columns.end(), name);
    EXPECT_NE(it, series.columns.end()) << name;
    return static_cast<std::size_t>(it - series.columns.begin());
  };
  const auto sum = [&](std::size_t col) {
    double total = 0.0;
    for (const auto& w : series.windows) total += w.values[col];
    return total;
  };
  EXPECT_DOUBLE_EQ(sum(column("offered")), static_cast<double>(report.offered));
  EXPECT_DOUBLE_EQ(sum(column("rejected")), static_cast<double>(report.rejected));
  // Completions can land after the last window closes (in-flight transfers
  // drain past the arrival horizon), so windows undercount at most.
  EXPECT_LE(sum(column("completed")), static_cast<double>(report.completed));
  EXPECT_GT(sum(column("completed")), 0.0);
}

TEST(LoadRunner, SeriesAndTimelineAreDeterministic) {
  sim::World world(load_test_spec());
  load::LoadConfig config = load::load_config_from_spec(world.spec());
  config.series_interval = Milliseconds{500.0};
  config.timeline = true;
  // Overload + churn so the timeline actually has fault and shed traffic.
  config.traffic.requests_per_second *= 16.0;
  config.capacity.max_transfers_per_satellite = 4;
  config.degradation.enabled = true;

  using faults::Component;
  using faults::Transition;
  config.fault_schedule = faults::FaultSchedule::from_trace({
      {Milliseconds{600.0}, Component::kSatellite, Transition::kFail, 3},
      {Milliseconds{1'400.0}, Component::kSatellite, Transition::kRecover, 3},
  });

  const auto run_once = [&] { return run_load(world, config); };
  const load::LoadReport a = run_once();
  const load::LoadReport b = run_once();

  EXPECT_EQ(a.series.checksum(), b.series.checksum());
  EXPECT_EQ(a.timeline.checksum(), b.timeline.checksum());
  EXPECT_FALSE(a.timeline.empty());
  EXPECT_GT(a.timeline.count("fault.fail"), 0u);
  // Shedding salvages admission rejects, so overload shows up as
  // degradation events too.
  EXPECT_GT(a.timeline.count("degradation."), 0u);

  // Turning observability off must not change the simulated outcome.
  load::LoadConfig off = config;
  off.series_interval = Milliseconds{0.0};
  off.timeline = false;
  const load::LoadReport plain = run_load(world, off);
  EXPECT_EQ(plain.offered, a.offered);
  EXPECT_EQ(plain.completed, a.completed);
  EXPECT_EQ(plain.rejected, a.rejected);
  EXPECT_TRUE(plain.timeline.empty());
  EXPECT_TRUE(plain.series.empty());
}

// ---------------------------------------------------------------------------
// Staged run: prepare() + engine().run() + collect() is run()
// ---------------------------------------------------------------------------

// The constructor hands `this` to hooks, probes and callbacks, so a moved
// runner would fire them into the moved-from object.
static_assert(!std::is_move_constructible_v<load::LoadRunner>);

void expect_reports_identical(const load::LoadReport& a, const load::LoadReport& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.no_coverage, b.no_coverage);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.latency_ms.raw(), b.latency_ms.raw());  // bit-exact, in order
  EXPECT_EQ(a.queue_wait_ms.raw(), b.queue_wait_ms.raw());
  EXPECT_EQ(a.satellite_utilization, b.satellite_utilization);
}

TEST(LoadRunner, StagedRunMatchesRun) {
  sim::World world(load_test_spec());
  const lsn::StarlinkConfig preset = lsn::starlink_preset(world.spec().constellation);
  load::LoadConfig plain = load::load_config_from_spec(world.spec());
  load::LoadConfig faulted = plain;
  using faults::Component;
  using faults::Transition;
  faulted.fault_schedule = faults::FaultSchedule::from_trace({
      {Milliseconds{600.0}, Component::kSatellite, Transition::kFail, 3},
      {Milliseconds{1'400.0}, Component::kSatellite, Transition::kRecover, 3},
  });

  for (const load::LoadConfig* config : {&plain, &faulted}) {
    // Each run mutates its network under the fault schedule, so each gets
    // its own.
    const auto run_network = world.make_network(preset);
    space::SatelliteFleet run_fleet = world.make_fleet();
    cdn::CdnDeployment run_ground = world.make_ground_cdn();
    load::LoadRunner one_call(*run_network, run_fleet, run_ground, world.clients(),
                              *config);
    const load::LoadReport expected = one_call.run();

    const auto staged_network = world.make_network(preset);
    space::SatelliteFleet staged_fleet = world.make_fleet();
    cdn::CdnDeployment staged_ground = world.make_ground_cdn();
    load::LoadRunner staged(*staged_network, staged_fleet, staged_ground,
                            world.clients(), *config);
    staged.prepare();
    staged.engine().run();
    const load::LoadReport actual = staged.collect();

    ASSERT_GT(expected.completed, 0u);
    expect_reports_identical(expected, actual);
    const std::uint64_t failures = config == &faulted ? 1u : 0u;
    EXPECT_EQ(one_call.churn_counters().satellite_failures, failures);
    EXPECT_EQ(staged.churn_counters().satellite_failures, failures);
  }
}

}  // namespace
