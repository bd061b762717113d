#include "load/load_runner.hpp"

#include <algorithm>
#include <utility>

#include "data/datasets.hpp"
#include "obs/telemetry.hpp"
#include "spacecdn/placement_map.hpp"
#include "util/error.hpp"

namespace spacecdn::load {

namespace {

space::RouterConfig router_config(const LoadConfig& config) {
  space::RouterConfig rc;
  rc.max_isl_hops = config.max_isl_hops;
  rc.record_paths = true;  // the engine charges transfers against the links
  rc.resilience = config.resilience;
  return rc;
}

/// Deadline misses inside one rolling second that trip the flight recorder.
constexpr std::size_t kMissSpikeThreshold = 64;

/// Directed ISL link key: content flows from -> to.
constexpr std::uint64_t link_key(std::uint32_t from, std::uint32_t to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

LoadRunner::LoadRunner(lsn::StarlinkNetwork& network, space::SatelliteFleet& fleet,
                       cdn::CdnDeployment& ground_cdn,
                       std::vector<sim::Shell1Client> clients, LoadConfig config)
    : network_(&network),
      fleet_(&fleet),
      config_(std::move(config)),
      traffic_(std::move(clients), config_.traffic),
      router_(network, fleet, ground_cdn, router_config(config_)),
      admission_(fleet.size(), config_.capacity.max_transfers_per_satellite,
                 config_.capacity.reject_storm_threshold),
      downlink_queues_(fleet.size()) {
  if (!config_.fault_schedule.empty()) churn_.emplace(network, fleet);
  if (config_.degradation.enabled) {
    degradation_.emplace(fleet.size(), config_.degradation);
    // New arrivals steer away from satellites inside a hot window.
    router_.set_serving_filter(
        [this](std::uint32_t sat) { return !degradation_->hot(sat, sim_.now()); });
  }
  admission_.set_reject_hook([this](std::uint32_t sat, std::size_t active) {
    if (degradation_) {
      const std::uint64_t marks_before = degradation_->hot_marks();
      degradation_->on_reject(sat, sim_.now());
      // Only window *entries* land on the timeline; re-marks extend silently.
      if (timeline_enabled_ && degradation_->hot_marks() != marks_before) {
        timeline_.record(sim_.now(), "degradation.hot-mark",
                         "satellite:" + std::to_string(sat));
      }
    }
    if (user_reject_hook_) user_reject_hook_(sat, active);
  });
  const auto& cities = traffic_.clients();
  city_country_.reserve(cities.size());
  city_location_.reserve(cities.size());
  for (const sim::Shell1Client& client : cities) {
    city_country_.push_back(&data::country(client.city->country_code));
    city_location_.push_back(sim::client_location(client));
  }
  setup_observability();
}

void LoadRunner::setup_observability() {
  timeline_enabled_ = config_.timeline;
  const bool series_on = config_.series_interval.value() > 0.0;
  if (timeline_enabled_ || series_on) {
    // The SLO tracker rides along with either artifact: burn rates feed the
    // series, alert transitions feed the timeline.
    slo_.emplace(config_.slo);
    if (timeline_enabled_) {
      const char* subject = config_.request_deadline.value() > 0.0
                                ? "slo:deadline"
                                : "slo:availability";
      slo_->set_alert_hook([this, subject](const obs::SloAlert& alert) {
        timeline_.record(alert.at,
                         alert.firing ? "slo.alert-fire" : "slo.alert-resolve",
                         subject, "short-window burn rate", alert.short_burn);
      });
    }
  }
  if (timeline_enabled_) {
    router_.set_breaker_listener(
        [this](std::size_t gateway, space::CircuitBreaker::State from,
               space::CircuitBreaker::State to, Milliseconds at) {
          timeline_.record(at,
                           "breaker." + std::string(space::to_string(to)),
                           "gateway:" + std::to_string(gateway),
                           "from " + std::string(space::to_string(from)));
        });
  }
  if (!series_on) return;
  series_.emplace(obs::TimeSeriesConfig{config_.series_interval});
  series_->add_gauge("offered",
                     [this] { return static_cast<double>(window_.offered); });
  series_->add_gauge("completed",
                     [this] { return static_cast<double>(window_.completed); });
  series_->add_gauge("failed",
                     [this] { return static_cast<double>(window_.failed); });
  series_->add_gauge("rejected",
                     [this] { return static_cast<double>(window_.rejected); });
  series_->add_gauge("no_coverage", [this] {
    return static_cast<double>(window_.no_coverage);
  });
  series_->add_gauge("deadline_missed", [this] {
    return static_cast<double>(window_.deadline_missed);
  });
  series_->add_gauge("shed_to_ground",
                     [this] { return static_cast<double>(window_.shed); });
  series_->add_gauge("availability", [this] {
    return window_.offered == 0
               ? 1.0
               : static_cast<double>(window_.completed) /
                     static_cast<double>(window_.offered);
  });
  series_->add_gauge("p50_ms", [this] {
    return window_.latency_ms.size() == 0 ? 0.0
                                          : window_.latency_ms.quantile(0.5);
  });
  series_->add_gauge("p99_ms", [this] {
    return window_.latency_ms.size() == 0 ? 0.0
                                          : window_.latency_ms.quantile(0.99);
  });
  series_->add_gauge(
      "goodput_mbps",
      obs::TimeSeriesRecorder::WindowProbe(
          [this](Milliseconds start, Milliseconds end) {
            const double seconds = (end - start).seconds();
            return seconds <= 0.0 ? 0.0 : window_.delivered_mb * 8.0 / seconds;
          }));
  series_->add_gauge("queue_depth", [this] {
    return static_cast<double>(queue_depth_total());
  });
  series_->add_gauge("active_transfers",
                     [this] { return static_cast<double>(inflight_); });
  series_->add_gauge("breaker_open", [this] {
    return static_cast<double>(router_.breaker_open_count());
  });
  series_->add_gauge("hot_satellites", [this] {
    return degradation_
               ? static_cast<double>(degradation_->hot_count(sim_.now()))
               : 0.0;
  });
  series_->add_gauge("slo_fast_burn", [this] {
    return slo_ ? slo_->burn_rate(sim_.now(), slo_->config().short_window)
                : 0.0;
  });
  series_->on_window_close([this] { window_ = WindowCounts{}; });
}

void LoadRunner::note_outcome(Milliseconds now, bool good) {
  if (slo_) slo_->record(now, good);
}

std::size_t LoadRunner::queue_depth_total() const noexcept {
  std::size_t total = 0;
  for (const auto& queue : downlink_queues_) {
    if (queue) total += queue->depth();
  }
  for (const auto& queue : gateway_queues_) {
    if (queue) total += queue->depth();
  }
  return total;
}

void LoadRunner::set_reject_hook(AdmissionController::RejectHook hook) {
  // The degradation policy's hook stays first in the chain.
  user_reject_hook_ = std::move(hook);
}

space::ChurnController::Counters LoadRunner::churn_counters() const {
  return churn_ ? churn_->counters() : space::ChurnController::Counters{};
}

LoadReport LoadRunner::run() {
  prepare();
  sim_.run();
  return collect();
}

void LoadRunner::prepare() {
  // Prewarm replicas across the constellation so tier (ii) has content to
  // find (the paper's in-plane placement argument, section 4).
  if (config_.copies_per_plane > 0) {
    const space::PlacementMap placement(
        network_->constellation(),
        {.policy = space::PlacementPolicy::kPerPlane,
         .replicas = config_.copies_per_plane,
         .plane_stride = config_.placement_plane_stride});
    for (const cdn::ContentItem& item : traffic_.catalog().items()) {
      placement.place(*fleet_, item, Milliseconds{0.0});
    }
  }

  // The fault timeline runs *inside* the event loop: outages land between
  // arrivals with transfers in flight, exactly like a real incident.
  if (churn_) {
    config_.fault_schedule.install(
        sim_, [this](const faults::FaultEvent& event) {
          if (timeline_enabled_) {
            timeline_.record(sim_.now(),
                             event.transition == faults::Transition::kFail
                                 ? "fault.fail"
                                 : "fault.recover",
                             std::string(faults::to_string(event.component)) +
                                 ":" + std::to_string(event.target));
          }
          churn_->apply(event);
        });
  }
  if (timeline_enabled_ && config_.traffic.surge.enabled()) {
    const RegionalSurge& surge = config_.traffic.surge;
    timeline_.record(surge.start, "surge.begin", "traffic", "regional surge",
                     surge.multiplier);
    timeline_.record(surge.start + surge.duration, "surge.end", "traffic", {},
                     surge.multiplier);
  }
  // Observability ticks are DES events too: the SLO evaluator first so the
  // series recorder (installed after, same boundaries) samples the already
  // updated burn rate and alert state.
  if (slo_) slo_->install(sim_, config_.horizon);
  if (series_) series_->install(sim_, config_.horizon);

  const std::vector<sim::Shell1Client>& clients = traffic_.clients();
  client_rng_.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    // Streams key on the *dataset* index, so a coverage-filtered client set
    // draws the same numbers as the unfiltered one (fig7's convention).
    client_rng_.emplace_back(des::mix_seed(config_.seed, clients[i].dataset_index));
    schedule_next_arrival(i);
  }
}

LoadReport LoadRunner::collect() {
  report_.peak_active_transfers = admission_.peak_active();
  report_.breaker_short_circuits = router_.breaker_short_circuits();
  if (degradation_) report_.hot_marks = degradation_->hot_marks();
  report_.satellite_utilization.assign(fleet_->size(), 0.0);
  for (std::uint32_t sat = 0; sat < downlink_queues_.size(); ++sat) {
    if (!downlink_queues_[sat]) continue;
    const double util = downlink_queues_[sat]->utilization(config_.horizon);
    report_.satellite_utilization[sat] = util;
    report_.max_utilization = std::max(report_.max_utilization, util);
    report_.peak_queue_depth =
        std::max(report_.peak_queue_depth, downlink_queues_[sat]->peak_depth());
  }
  for (const auto& queue : gateway_queues_) {
    if (queue) report_.peak_queue_depth = std::max(report_.peak_queue_depth, queue->peak_depth());
  }
  report_.goodput_mbps = report_.delivered.megabits() / config_.horizon.seconds();

  if (slo_) {
    report_.slo_alerts = slo_->alerts_fired();
    report_.slo_budget_consumed = slo_->budget_consumed();
  }
  if (series_) report_.series = series_->take_series();
  if (timeline_enabled_) report_.timeline = std::move(timeline_);

  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->set_help("spacecdn_load_requests_total",
                "Load-engine request outcomes by result label.");
    m->set_help("spacecdn_load_latency_ms",
                "Completion latency: first byte + transfer incl. queueing (ms).");
    m->set_help("spacecdn_load_satellite_utilization",
                "Downlink busy fraction per serving satellite over the horizon.");
    m->counter("spacecdn_load_requests_total", {{"result", "completed"}})
        .inc(report_.completed);
    m->counter("spacecdn_load_requests_total", {{"result", "rejected"}})
        .inc(report_.rejected);
    m->counter("spacecdn_load_requests_total", {{"result", "no_coverage"}})
        .inc(report_.no_coverage);
    m->counter("spacecdn_load_requests_total", {{"result", "failed"}})
        .inc(report_.failed);
    m->counter("spacecdn_load_deadline_missed_total").inc(report_.deadline_missed);
    m->counter("spacecdn_load_abandoned_total").inc(report_.abandoned);
    m->counter("spacecdn_load_shed_to_ground_total").inc(report_.shed_to_ground);
    m->counter("spacecdn_load_hot_marks_total").inc(report_.hot_marks);
    for (std::size_t t = 0; t < report_.tier.size(); ++t) {
      m->counter("spacecdn_load_served_total",
                 {{"tier", std::string(space::to_string(
                               static_cast<space::FetchTier>(t)))}})
          .inc(report_.tier[t]);
    }
    auto& latency = m->histogram("spacecdn_load_latency_ms");
    for (const double v : report_.latency_ms.raw()) latency.observe(v);
    auto& util = m->histogram("spacecdn_load_satellite_utilization", {},
                              {0.0, 1.0, 20});
    for (const double u : report_.satellite_utilization) {
      if (u > 0.0) util.observe(u);
    }
    m->gauge("spacecdn_load_goodput_mbps").set(report_.goodput_mbps);
    m->gauge("spacecdn_load_peak_queue_depth")
        .set(static_cast<double>(report_.peak_queue_depth));
    m->gauge("spacecdn_load_peak_active_transfers")
        .set(static_cast<double>(report_.peak_active_transfers));
  }
  return report_;
}

void LoadRunner::schedule_next_arrival(std::size_t client_index) {
  const Milliseconds gap =
      traffic_.next_interarrival(client_index, sim_.now(), client_rng_[client_index]);
  if (sim_.now() + gap >= config_.horizon) return;  // open loop ends at horizon
  sim_.schedule(gap, [this, client_index] { handle_arrival(client_index); });
}

void LoadRunner::handle_arrival(std::size_t client_index) {
  // Open loop: the next arrival is scheduled before this one is served, so
  // a congested system keeps receiving offered load (no coordinated
  // omission).
  schedule_next_arrival(client_index);
  des::Rng& rng = client_rng_[client_index];
  ++report_.offered;
  if (series_) ++window_.offered;

  const data::CountryInfo& country = *city_country_[client_index];
  const cdn::ContentItem& item = traffic_.sample_object(country, rng);
  const Milliseconds arrival = sim_.now();

  std::optional<space::FetchResult> fetch;
  Milliseconds first_byte{0.0};
  if (config_.resilient_fetch) {
    const auto result = router_.fetch_resilient(city_location_[client_index], country,
                                                item, rng, arrival);
    report_.retries += result.retries;
    if (result.hedged) ++report_.hedged;
    if (result.hedge_won) ++report_.hedge_won;
    if (!result.success) {
      // Exhausted attempts or deadline budget (includes coverage gaps).
      ++report_.failed;
      if (series_) ++window_.failed;
      note_outcome(arrival, /*good=*/false);
      if (config_.request_deadline.value() > 0.0) note_deadline_miss(arrival);
      return;
    }
    fetch = result.served;
    // The client-observed first byte includes every retry/backoff wait.
    first_byte = result.total_latency;
  } else {
    fetch = router_.fetch(city_location_[client_index], country, item, rng, arrival);
    if (!fetch) {
      ++report_.no_coverage;
      if (series_) ++window_.no_coverage;
      note_outcome(arrival, /*good=*/false);
      return;
    }
    first_byte = fetch->rtt;
  }

  const std::uint32_t serving = fetch->serving_satellite;
  if (!admission_.try_admit(serving, arrival)) {
    // Shed to ground: one bent-pipe-only re-fetch.  The rejection above just
    // marked `serving` hot, so the serving filter steers the re-fetch to an
    // alternate satellite whose downlink still has slots.
    if (degradation_ && degradation_->config().shed_to_ground &&
        config_.resilient_fetch) {
      router_.set_ground_only(true);
      const auto shed = router_.fetch_resilient(city_location_[client_index], country,
                                                item, rng, arrival);
      router_.set_ground_only(false);
      if (shed.success && shed.served->serving_satellite != serving &&
          admission_.try_admit(shed.served->serving_satellite, arrival)) {
        ++report_.shed_to_ground;
        ++inflight_;
        if (series_) ++window_.shed;
        if (timeline_enabled_) {
          timeline_.record(
              arrival, "degradation.shed",
              "satellite:" + std::to_string(shed.served->serving_satellite),
              "rejected at satellite:" + std::to_string(serving));
        }
        dispatch_transfer(client_index, *shed.served, item.size, shed.total_latency,
                          arrival);
        return;
      }
    }
    ++report_.rejected;
    if (series_) ++window_.rejected;
    note_outcome(arrival, /*good=*/false);
    return;
  }
  ++inflight_;
  dispatch_transfer(client_index, *fetch, item.size, first_byte, arrival);
}

void LoadRunner::dispatch_transfer(std::size_t client_index,
                                   const space::FetchResult& fetch, Megabytes volume,
                                   Milliseconds first_byte, Milliseconds arrival) {
  const space::FetchTier tier = fetch.tier;
  const std::uint32_t serving = fetch.serving_satellite;
  const std::uint64_t flow = traffic_.clients()[client_index].dataset_index;
  const Milliseconds isl_wait = charge_isl_path(fetch.isl_path, volume);

  // The downlink is the final (and usually bottleneck) hop of every tier.
  auto to_downlink = [this, client_index, tier, first_byte, isl_wait, arrival, serving,
                      volume, flow](Milliseconds upstream_wait) {
    downlink_queue(serving).submit(
        volume, flow,
        [this, client_index, tier, first_byte, isl_wait, arrival, serving, volume,
         upstream_wait](Milliseconds wait) {
          finish_transfer(client_index, tier, first_byte, isl_wait, arrival, serving,
                          volume, upstream_wait + wait);
        });
  };

  if (tier == space::FetchTier::kGround && fetch.gateway) {
    // Tier (iii) rides the gateway feeder up, then the ISL path to the
    // serving satellite, then the downlink -- three stages in series.
    gateway_queue(*fetch.gateway)
        .submit(volume, flow, [this, to_downlink, isl_wait](Milliseconds gw_wait) {
          if (isl_wait.value() > 0.0) {
            sim_.schedule(isl_wait,
                          [to_downlink, gw_wait] { to_downlink(gw_wait); });
          } else {
            to_downlink(gw_wait);
          }
        });
  } else if (isl_wait.value() > 0.0) {
    sim_.schedule(isl_wait, [to_downlink] { to_downlink(Milliseconds{0.0}); });
  } else {
    to_downlink(Milliseconds{0.0});
  }
}

Milliseconds LoadRunner::charge_isl_path(const std::vector<std::uint32_t>& path,
                                         Megabytes volume) {
  Milliseconds wait{0.0};
  if (path.size() < 2) return wait;
  const Milliseconds serialization = transmission_delay(volume, config_.capacity.isl);
  // The recorded path runs serving -> holder; content flows the other way.
  // Cut-through forwarding pipelines serialization across hops, so only the
  // per-link backlog waits accumulate (serialization itself is charged at
  // the slower downlink hop).
  for (std::size_t k = path.size() - 1; k > 0; --k) {
    net::LinkLoad& load = isl_load_[link_key(path[k], path[k - 1])];
    wait += load.charge(sim_.now() + wait, serialization, volume);
  }
  return wait;
}

LinkQueue& LoadRunner::downlink_queue(std::uint32_t satellite) {
  auto& slot = downlink_queues_[satellite];
  if (!slot) {
    slot = std::make_unique<LinkQueue>(sim_, config_.capacity.satellite_downlink,
                                       config_.capacity.discipline,
                                       config_.capacity.drr_quantum);
  }
  return *slot;
}

LinkQueue& LoadRunner::gateway_queue(std::size_t gateway) {
  if (gateway >= gateway_queues_.size()) gateway_queues_.resize(gateway + 1);
  auto& slot = gateway_queues_[gateway];
  if (!slot) {
    slot = std::make_unique<LinkQueue>(sim_, config_.capacity.gateway,
                                       config_.capacity.discipline,
                                       config_.capacity.drr_quantum);
  }
  return *slot;
}

void LoadRunner::finish_transfer(std::size_t client_index, space::FetchTier tier,
                                 Milliseconds first_byte, Milliseconds isl_wait,
                                 Milliseconds arrival, std::uint32_t serving,
                                 Megabytes volume, Milliseconds queue_wait) {
  (void)client_index;
  admission_.release(serving);
  if (inflight_ > 0) --inflight_;
  ++report_.completed;
  ++report_.tier[static_cast<std::size_t>(tier)];
  // sim time since arrival already contains every queueing + serialization
  // stage (the ISL wait was materialised as a schedule delay); the first
  // byte's RTT rides on top.
  const Milliseconds transfer = sim_.now() - arrival;
  const Milliseconds latency = first_byte + transfer;
  report_.latency_ms.add(latency.value());
  report_.queue_wait_ms.add((queue_wait + isl_wait).value());

  const double deadline = config_.request_deadline.value();
  const bool met_deadline = deadline <= 0.0 || latency.value() <= deadline;
  note_outcome(sim_.now(), met_deadline);
  if (series_) {
    ++window_.completed;
    window_.latency_ms.add(latency.value());
  }
  if (!met_deadline) {
    ++report_.deadline_missed;
    if (series_) ++window_.deadline_missed;
    note_deadline_miss(sim_.now());
    if (latency.value() > 2.0 * deadline) {
      // The viewer moved on: delivered, but not goodput.
      ++report_.abandoned;
      return;
    }
  }
  report_.delivered += volume;
  if (series_) window_.delivered_mb += volume.value();

  // Tail-at-scale adaptive hedging: re-derive the hedge delay from the
  // trailing completion p99 every 256 completions.
  if (config_.hedge_auto && config_.resilient_fetch && report_.completed % 256 == 0 &&
      report_.latency_ms.size() >= 64) {
    router_.set_hedge_delay(Milliseconds{report_.latency_ms.quantile(0.99)});
  }
}

void LoadRunner::note_deadline_miss(Milliseconds now) {
  if (now - miss_window_start_ >= Milliseconds{1'000.0}) {
    miss_window_start_ = now;
    miss_window_count_ = 0;
  }
  // Trip once per window, at the crossing.
  if (++miss_window_count_ == kMissSpikeThreshold) {
    if (auto* recorder = obs::recorder()) recorder->trip("deadline-miss-spike", now);
    if (timeline_enabled_) {
      timeline_.record(now, "flight-recorder.trip", "deadline-miss-spike", {},
                       static_cast<double>(kMissSpikeThreshold));
    }
  }
}

LoadConfig load_config_from_spec(const sim::ScenarioSpec& spec) {
  LoadConfig config;
  config.traffic.requests_per_second = spec.arrival_rate_rps;
  config.traffic.catalog = object_size_preset(spec.object_size_dist);
  config.traffic.burst = parse_burst_trace(spec.burst_trace);
  config.horizon = Milliseconds::from_seconds(spec.load_horizon_s);
  config.seed = spec.seed;

  const lsn::StarlinkConfig preset = lsn::starlink_preset(spec.constellation);
  CapacityConfig capacity;
  capacity.satellite_downlink = preset.access.satellite_downlink_aggregate;
  capacity.satellite_uplink = preset.access.satellite_uplink_aggregate;
  capacity.gateway = preset.access.gateway_aggregate;
  capacity.isl = preset.isl.capacity;
  capacity.discipline = parse_queue_discipline(spec.queue_discipline);
  config.capacity = capacity.scaled(spec.link_capacity_scale);

  config.resilient_fetch = spec.resilient_fetch;
  config.request_deadline = Milliseconds{spec.request_deadline_ms};
  // The fetch-side deadline budget and the SLO share one knob: a resilient
  // fetch never keeps retrying past the point where the completion would be
  // a guaranteed miss.
  config.resilience.deadline = config.request_deadline;
  if (spec.attempt_timeout_ms > 0.0) {
    config.resilience.attempt_timeout = Milliseconds{spec.attempt_timeout_ms};
  }
  config.resilience.backoff_jitter = spec.backoff_jitter;
  if (spec.hedge_delay_ms < 0.0) {
    config.hedge_auto = true;  // re-derived from the trailing p99 at runtime
  } else {
    config.resilience.hedge_delay = Milliseconds{spec.hedge_delay_ms};
  }
  config.resilience.breaker.failure_threshold =
      static_cast<std::uint32_t>(spec.breaker_threshold);
  config.resilience.breaker.open_cooldown =
      Milliseconds::from_seconds(spec.breaker_cooldown_s);
  config.degradation.enabled = spec.shed_to_ground;
  config.degradation.shed_to_ground = spec.shed_to_ground;

  // Chaos surge: the in-region population hammers the network exactly while
  // the fault domain is down.  A solar storm is global, not regional -- no
  // surge there.
  if (!spec.chaos.empty() && spec.chaos_surge > 1.0 && spec.chaos != "solar-storm") {
    config.traffic.surge.center = {spec.chaos_lat, spec.chaos_lon, 0.0};
    config.traffic.surge.radius = Kilometers{spec.chaos_radius_km};
    config.traffic.surge.multiplier = spec.chaos_surge;
    config.traffic.surge.start = Milliseconds::from_seconds(spec.chaos_start_s);
    config.traffic.surge.duration = Milliseconds::from_seconds(spec.chaos_duration_s);
  }

  // Sim-time observability: the recorder runs whenever a series artifact was
  // requested, the timeline whenever a timeline artifact was.
  if (!spec.series_out.empty()) {
    config.series_interval = Milliseconds::from_seconds(spec.series_interval_s);
  }
  config.timeline = !spec.timeline_out.empty();
  config.slo.objective = spec.slo_objective;
  config.slo.short_window = Milliseconds::from_seconds(spec.slo_window_short_s);
  config.slo.long_window = Milliseconds::from_seconds(spec.slo_window_long_s);
  config.slo.burn_threshold = spec.slo_burn_threshold;
  return config;
}

cdn::CatalogConfig object_size_preset(const std::string& name) {
  cdn::CatalogConfig config;
  if (name == "web") {
    // Page assets: many small objects, a deep catalog.
    config.object_count = 20'000;
    config.median_size = Megabytes{0.5};
    config.size_sigma = 1.0;
    config.max_size = Megabytes{100.0};
  } else if (name == "video") {
    // Streaming segments/blobs: few large objects.
    config.object_count = 2'000;
    config.median_size = Megabytes{50.0};
    config.size_sigma = 0.8;
  } else if (name == "mixed") {
    config.object_count = 10'000;  // the cache experiments' lognormal
  } else {
    throw ConfigError("unknown object-size-dist '" + name + "' (web/video/mixed)");
  }
  return config;
}

}  // namespace spacecdn::load
