// The request-level load engine: open-loop traffic through SpaceCDN under
// finite link capacities.
//
// Wires the pieces together: TrafficModel emits per-city Poisson arrivals
// onto a des::Simulator; each request routes through the three-tier
// SpaceCdnRouter (with path recording on, so the engine knows which links
// its bytes cross); the transfer is then charged against real capacities --
// admission control at the serving satellite, net::LinkLoad cut-through
// charges on the ISL path, and explicit LinkQueues at the bottleneck hops
// (gateway feeder, satellite downlink).  A request's completion latency is
// therefore propagation + serialization + the queueing it actually saw.
//
// Determinism: every city draws from its own des::mix_seed stream keyed by
// dataset index, and the simulation itself is serial, so a run's sample
// sequence is a pure function of (world, config, seed).  Benches shard
// *runs* (offered-load points) across threads and merge in point order,
// keeping the fig9 checksum bit-identical for any --threads value.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cdn/deployment.hpp"
#include "des/simulator.hpp"
#include "des/stats.hpp"
#include "faults/schedule.hpp"
#include "load/capacity.hpp"
#include "load/degradation.hpp"
#include "load/traffic.hpp"
#include "lsn/starlink.hpp"
#include "net/link.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "sim/scenario.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/resilience.hpp"
#include "spacecdn/router.hpp"

namespace spacecdn::load {

/// Everything one load run needs beyond the world objects.
struct LoadConfig {
  TrafficConfig traffic = {};
  CapacityConfig capacity = {};
  /// Arrivals stop at the horizon; in-flight transfers drain afterwards.
  Milliseconds horizon = Milliseconds::from_seconds(30.0);
  /// Router hop budget for tier (ii).
  std::uint32_t max_isl_hops = 10;
  /// Replica prewarm (the per-plane space::PlacementMap policy): copies per
  /// selected plane, every `placement_plane_stride`-th plane.  0 copies =
  /// cold start.
  std::uint32_t copies_per_plane = 4;
  std::uint32_t placement_plane_stride = 8;
  /// Primary seed; per-city streams derive from it via des::mix_seed.
  std::uint64_t seed = 42;

  // --- compound-failure resilience (all off by default, so historical runs
  // and their checksums are unchanged) ---
  /// Route through fetch_resilient (deadline / retry / hedge / breaker)
  /// instead of the plain three-tier fetch.
  bool resilient_fetch = false;
  /// Retry/deadline/hedge/breaker policy of the resilient path.
  space::ResilienceConfig resilience = {};
  /// Segment deadline for SLO accounting: a completion later than this is a
  /// deadline miss, later than twice this an abandonment (the live-video
  /// viewer has moved on; the bytes no longer count as goodput).  0 = no
  /// deadline SLO.
  Milliseconds request_deadline{0.0};
  /// Re-derive the hedge delay from the trailing completion-latency p99
  /// every few hundred completions (tail-at-scale's adaptive rule).
  bool hedge_auto = false;
  /// Admission-rejection degradation policy (hot marks + shed-to-ground).
  DegradationConfig degradation = {};
  /// Fault timeline applied *inside* the event loop via a ChurnController,
  /// so outages hit mid-run with transfers in flight.  Empty = no faults.
  faults::FaultSchedule fault_schedule = faults::FaultSchedule::from_trace({});

  // --- sim-time observability (all off by default; the recorder, timeline,
  // and SLO tracker are per-run state driven by this run's private
  // simulator, so parallel sweeps stay bit-identical) ---
  /// Sampling window of the windowed time series; 0 disables the recorder.
  Milliseconds series_interval{0.0};
  /// Record the unified incident timeline (fault events, breaker
  /// transitions, degradation hot-marks/sheds, recorder trips, SLO alerts).
  bool timeline = false;
  /// Burn-rate alerting policy.  The tracker is engaged whenever the series
  /// recorder or the timeline is on: with a request deadline, "good" means
  /// completed within it; without one, any completion is good.
  obs::SloConfig slo = {};
};

/// SLO-style outcome of one load run.
struct LoadReport {
  std::uint64_t offered = 0;      ///< arrivals generated
  std::uint64_t completed = 0;    ///< transfers fully delivered
  std::uint64_t rejected = 0;     ///< admission-control drops (net of sheds)
  std::uint64_t no_coverage = 0;  ///< client had no serving satellite
  /// Resilient fetches that exhausted every attempt or their deadline
  /// budget (plain-fetch runs keep this at 0); completed + rejected +
  /// no_coverage + failed == offered.
  std::uint64_t failed = 0;
  /// Completions later than the request deadline (subset of completed).
  std::uint64_t deadline_missed = 0;
  /// Completions later than twice the deadline: the viewer abandoned, the
  /// bytes are excluded from delivered/goodput (subset of deadline_missed).
  std::uint64_t abandoned = 0;
  /// Admission rejections salvaged by the shed-to-ground policy (these
  /// count as completed, not rejected).
  std::uint64_t shed_to_ground = 0;
  std::uint64_t retries = 0;    ///< resilient-fetch retries across all requests
  std::uint64_t hedged = 0;     ///< hedged second requests issued
  std::uint64_t hedge_won = 0;  ///< hedges that beat the primary
  std::uint64_t breaker_short_circuits = 0;  ///< open-breaker bent-pipe skips
  std::uint64_t hot_marks = 0;  ///< degradation hot-satellite markings
  /// Completions by FetchTier (kServingSatellite, kIslNeighbor, kGround).
  std::array<std::uint64_t, 3> tier{};
  /// Request completion latency (first byte + transfer incl. queueing), ms.
  des::SampleSet latency_ms;
  /// Queueing delay component per completed request, ms.
  des::SampleSet queue_wait_ms;
  Megabytes delivered{0.0};
  /// Delivered volume over the arrival horizon.
  double goodput_mbps = 0.0;
  std::size_t peak_queue_depth = 0;
  std::size_t peak_active_transfers = 0;
  /// Downlink busy fraction per satellite over the horizon (the utilization
  /// heatmap; satellites that never served stay at 0).
  std::vector<double> satellite_utilization;
  double max_utilization = 0.0;
  /// Windowed time series (empty unless LoadConfig::series_interval > 0).
  obs::TimeSeries series;
  /// Unified incident timeline (empty unless LoadConfig::timeline).
  obs::IncidentTimeline timeline;
  /// SLO burn-rate alerts fired / whole-run error budget consumed (0 while
  /// the tracker is off).
  std::uint64_t slo_alerts = 0;
  double slo_budget_consumed = 0.0;

  [[nodiscard]] double reject_fraction() const noexcept {
    return offered == 0 ? 0.0 : static_cast<double>(rejected) / static_cast<double>(offered);
  }
  /// Fraction of offered requests that completed.
  [[nodiscard]] double availability() const noexcept {
    return offered == 0 ? 0.0
                        : static_cast<double>(completed) / static_cast<double>(offered);
  }
  /// Fraction of offered requests that blew the deadline: late completions
  /// plus requests that never completed at all (with a deadline SLO, a
  /// failed or dropped request is a missed segment too).
  [[nodiscard]] double deadline_miss_fraction() const noexcept {
    if (offered == 0) return 0.0;
    return static_cast<double>(deadline_missed + failed + rejected + no_coverage) /
           static_cast<double>(offered);
  }
};

/// Drives one open-loop load run over a SpaceCDN world.
///
/// The caller owns the world objects (fleet and ground CDN mutated by cache
/// admissions; the network is mutated too when a fault schedule is
/// installed -- chaos runs must hand each run its own network, like
/// ablation_churn's World::make_network pattern); sweeps hand each run its
/// own fleet + ground CDN so points are independent.
class LoadRunner {
 public:
  /// @throws spacecdn::ConfigError on empty clients or bad traffic config.
  LoadRunner(lsn::StarlinkNetwork& network, space::SatelliteFleet& fleet,
             cdn::CdnDeployment& ground_cdn, std::vector<sim::Shell1Client> clients,
             LoadConfig config);

  /// The constructor installs hooks, probes and callbacks that capture
  /// `this`, so a runner can be neither copied nor moved.
  LoadRunner(const LoadRunner&) = delete;
  LoadRunner& operator=(const LoadRunner&) = delete;
  LoadRunner(LoadRunner&&) = delete;
  LoadRunner& operator=(LoadRunner&&) = delete;

  /// The backpressure hook: fires on every admission rejection.  Install
  /// before run(); e.g. feed a faults-style degradation policy.
  void set_reject_hook(AdmissionController::RejectHook hook);

  /// Stage 1 of a run: prewarms placement, installs the fault schedule and
  /// observability producers, and schedules every client's first arrival.
  /// After this the engine is ready to run; call collect() once it drains.
  void prepare();

  /// Stage 2: aggregates the report after the engine has drained.  Also
  /// mirrors the headline numbers into obs::metrics() when a registry is
  /// installed (single-threaded sinks; call from one thread).
  [[nodiscard]] LoadReport collect();

  /// prepare() + run the engine to completion + collect(), the one-call
  /// path every bench uses.
  [[nodiscard]] LoadReport run();

  /// The simulator this run schedules on; a caller may drive the stages
  /// itself (prepare(), engine().run(), collect()) to time each one.
  [[nodiscard]] des::Simulator& engine() noexcept { return sim_; }

  [[nodiscard]] const TrafficModel& traffic() const noexcept { return traffic_; }
  [[nodiscard]] const LoadConfig& config() const noexcept { return config_; }

  /// Churn counters of the installed fault schedule (zeroes without one).
  [[nodiscard]] space::ChurnController::Counters churn_counters() const;

 private:
  /// One request from client `i` at the current simulation time.
  void handle_arrival(std::size_t client_index);
  /// Draws client `i`'s next gap from its stream and schedules the arrival
  /// if it lands inside the horizon.
  void schedule_next_arrival(std::size_t client_index);
  /// Charges an admitted fetch against the capacity model (ISL path, the
  /// gateway feeder for tier iii, the serving satellite's downlink).
  void dispatch_transfer(std::size_t client_index, const space::FetchResult& fetch,
                         Megabytes volume, Milliseconds first_byte,
                         Milliseconds arrival);
  /// Charges `volume` along the recorded ISL path; returns the cut-through
  /// backlog wait (serialization pipelines, so only waits accumulate).
  [[nodiscard]] Milliseconds charge_isl_path(const std::vector<std::uint32_t>& path,
                                             Megabytes volume);
  [[nodiscard]] LinkQueue& downlink_queue(std::uint32_t satellite);
  [[nodiscard]] LinkQueue& gateway_queue(std::size_t gateway);
  void finish_transfer(std::size_t client_index, space::FetchTier tier,
                       Milliseconds first_byte, Milliseconds extra_wait,
                       Milliseconds arrival, std::uint32_t serving, Megabytes volume,
                       Milliseconds queue_wait);
  /// Rolling-window deadline-miss bookkeeping; a spike trips the flight
  /// recorder once per window.
  void note_deadline_miss(Milliseconds now);

  /// Engages the recorder / SLO tracker / timeline producers per config
  /// (called from the constructor; no-op when everything is off).
  void setup_observability();
  /// Feeds one request outcome to the SLO tracker and window accumulators.
  void note_outcome(Milliseconds now, bool good);
  /// Sum of the current depths of every live bottleneck queue.
  [[nodiscard]] std::size_t queue_depth_total() const noexcept;

  lsn::StarlinkNetwork* network_;
  space::SatelliteFleet* fleet_;
  LoadConfig config_;
  TrafficModel traffic_;
  des::Simulator sim_;
  space::SpaceCdnRouter router_;
  AdmissionController admission_;
  /// Applies fault_schedule events mid-run (engaged only when non-empty).
  std::optional<space::ChurnController> churn_;
  /// Hot-satellite marking + shed-to-ground (engaged when degradation.enabled).
  std::optional<DegradationPolicy> degradation_;
  /// The caller's reject hook; chained after the degradation policy's.
  AdmissionController::RejectHook user_reject_hook_;
  /// Rolling one-second deadline-miss window (flight-recorder spike trips).
  Milliseconds miss_window_start_{0.0};
  std::size_t miss_window_count_ = 0;
  /// One random stream per client, in client order.
  std::vector<des::Rng> client_rng_;
  std::vector<const data::CountryInfo*> city_country_;
  std::vector<geo::GeoPoint> city_location_;
  /// Lazily created bottleneck queues (most satellites never serve).
  std::vector<std::unique_ptr<LinkQueue>> downlink_queues_;
  std::vector<std::unique_ptr<LinkQueue>> gateway_queues_;
  /// Cut-through ISL loads, keyed by directed link (from << 32 | to).
  std::map<std::uint64_t, net::LinkLoad> isl_load_;
  LoadReport report_;

  // --- sim-time observability (engaged only when configured) ---
  std::optional<obs::TimeSeriesRecorder> series_;
  std::optional<obs::SloTracker> slo_;
  obs::IncidentTimeline timeline_;
  bool timeline_enabled_ = false;
  /// Concurrent admitted transfers (an active-transfers series gauge).
  std::size_t inflight_ = 0;
  /// Per-window accumulators behind the recorder's probes; reset at every
  /// window close.
  struct WindowCounts {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t no_coverage = 0;
    std::uint64_t deadline_missed = 0;
    std::uint64_t shed = 0;
    double delivered_mb = 0.0;
    des::SampleSet latency_ms;
  };
  WindowCounts window_;
};

/// Maps the scenario keys (`arrival-rate`, `object-size-dist`,
/// `link-capacity`, `burst-trace`, `load-horizon-s`, `queue-discipline`,
/// plus the resilience keys `resilient-fetch`, `request-deadline-ms`,
/// `attempt-timeout-ms`, `hedge-delay-ms` (-1 = auto-p99), `backoff-jitter`,
/// `breaker-threshold`, `breaker-cooldown-s`, `shed-to-ground`, the
/// chaos-* surge window, and the observability keys `series-out` /
/// `series-interval-s` / `timeline-out` / `slo-*`) onto a LoadConfig.  Capacities start from the
/// network preset's annotations (AccessConfig/IslConfig) scaled by
/// `link_capacity_scale`.  The fault schedule is *not* derived here --
/// chaos benches build domain schedules themselves and assign
/// LoadConfig::fault_schedule.
[[nodiscard]] LoadConfig load_config_from_spec(const sim::ScenarioSpec& spec);

/// The named object-size presets behind `object-size-dist`: "web" (small
/// objects, big catalog), "video" (large objects, small catalog), "mixed"
/// (the cache experiments' default lognormal).
/// @throws spacecdn::ConfigError on an unknown preset.
[[nodiscard]] cdn::CatalogConfig object_size_preset(const std::string& name);

}  // namespace spacecdn::load
