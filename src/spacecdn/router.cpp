#include "spacecdn/router.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "geo/propagation.hpp"
#include "geo/visibility.hpp"
#include "net/graph.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace spacecdn::space {

namespace {

constexpr obs::HistogramOptions kRttBuckets{0.0, 2'000.0, 200};

/// Counts a served fetch and its RTT into the installed registry.  The
/// handles live across calls so steady-state accounting skips the by-name
/// lookup (this runs once per fetch -- the router's hottest metric site).
void count_served(const FetchResult& result) {
  static std::array<obs::CounterHandle, 3> served{
      obs::CounterHandle{"spacecdn_fetch_served_total", {{"tier", "serving-satellite"}}},
      obs::CounterHandle{"spacecdn_fetch_served_total", {{"tier", "isl-neighbor"}}},
      obs::CounterHandle{"spacecdn_fetch_served_total", {{"tier", "ground"}}}};
  static std::array<obs::HistogramHandle, 3> rtt{
      obs::HistogramHandle{"spacecdn_fetch_rtt_ms", {{"tier", "serving-satellite"}},
                           kRttBuckets},
      obs::HistogramHandle{"spacecdn_fetch_rtt_ms", {{"tier", "isl-neighbor"}},
                           kRttBuckets},
      obs::HistogramHandle{"spacecdn_fetch_rtt_ms", {{"tier", "ground"}}, kRttBuckets}};
  static obs::CounterHandle ground_hit{"spacecdn_ground_cache_total",
                                       {{"result", "hit"}}};
  static obs::CounterHandle ground_miss{"spacecdn_ground_cache_total",
                                        {{"result", "miss"}}};

  const auto i = static_cast<std::size_t>(result.tier);
  served[i].inc();
  rtt[i].observe(result.rtt.value());
  if (result.tier == FetchTier::kGround) {
    (result.ground_cache_hit ? ground_hit : ground_miss).inc();
  }
}

/// "a>b>c" rendering of an ISL path for trace attrs.
std::string render_path(const std::vector<net::NodeId>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out += ">";
    out += std::to_string(nodes[i]);
  }
  return out;
}

}  // namespace

std::string_view to_string(FetchTier tier) noexcept {
  switch (tier) {
    case FetchTier::kServingSatellite: return "serving-satellite";
    case FetchTier::kIslNeighbor: return "isl-neighbor";
    case FetchTier::kGround: return "ground";
  }
  return "unknown";
}

SpaceCdnRouter::SpaceCdnRouter(const lsn::StarlinkNetwork& network, SatelliteFleet& fleet,
                               cdn::CdnDeployment& ground_cdn, RouterConfig config)
    : network_(&network),
      fleet_(&fleet),
      ground_cdn_(&ground_cdn),
      config_(config),
      ground_sites_(network.ground().pop_count()) {}

const SpaceCdnRouter::GroundSite& SpaceCdnRouter::ground_site(std::size_t pop) {
  std::optional<GroundSite>& entry = ground_sites_[pop];
  if (!entry) {
    const geo::GeoPoint pop_location = data::location(network_->ground().pop(pop));
    const std::size_t site = ground_cdn_->nearest_site(pop_location);
    const terrestrial::Backbone& backbone = network_->ground().backbone();
    entry = GroundSite{
        site, backbone.one_way_latency(pop_location, ground_cdn_->site_location(site)),
        backbone.rtt(ground_cdn_->site_location(site), ground_cdn_->origin_location())};
  }
  return *entry;
}

std::optional<FetchResult> SpaceCdnRouter::fetch(const geo::GeoPoint& client,
                                                 const data::CountryInfo& country,
                                                 const cdn::ContentItem& item,
                                                 des::Rng& rng, Milliseconds now) {
  SPACECDN_PROFILE("SpaceCdnRouter::fetch");
  obs::Tracer* tracer = obs::tracer();
  std::optional<obs::TraceBuilder> trace;
  if (tracer != nullptr) {
    trace.emplace("fetch", now);
    trace->attr(trace->root(), "item", std::to_string(item.id));
  }

  const auto serving = network_->snapshot().serving_satellite(
      client, network_->config().user_min_elevation_deg);
  if (trace) {
    const std::uint32_t sel = trace->open("serving-selection");
    trace->attr(sel, "satellite", serving ? std::to_string(*serving) : "none");
  }
  if (!serving) {
    static obs::CounterHandle no_coverage{"spacecdn_fetch_no_coverage_total"};
    no_coverage.inc();
    if (trace) tracer->record(trace->finish(/*failed=*/true));
    return std::nullopt;
  }

  const auto result = attempt_from(*serving, client, country, item, rng, now,
                                   trace ? &*trace : nullptr, obs::kNoParent);
  if (trace) {
    if (result) trace->set_duration(trace->root(), result->rtt);
    tracer->record(trace->finish(/*failed=*/!result.has_value()));
  }
  return result;
}

std::optional<FetchResult> SpaceCdnRouter::attempt_from(std::uint32_t serving,
                                                        const geo::GeoPoint& client,
                                                        const data::CountryInfo& country,
                                                        const cdn::ContentItem& item,
                                                        des::Rng& rng, Milliseconds now,
                                                        obs::TraceBuilder* trace,
                                                        std::uint32_t parent_span) {
  const auto& snapshot = network_->snapshot();
  const Milliseconds uplink = geo::propagation_delay(
      snapshot.slant_range(client, serving), geo::Medium::kVacuum);
  const Milliseconds space_overhead{rng.lognormal_median(
      config_.service_overhead_rtt.value(), config_.service_overhead_sigma)};

  // Under an erasure-coded placement map no single satellite holds a whole
  // object, so tier (i) and whole-object admission are meaningless: every
  // space fetch reconstructs from fragments in tier (ii).
  const bool ec_mode =
      placement_map_ != nullptr && placement_map_->min_live_for_read() > 1;

  // Tier (i): overhead satellite.  A shed-to-ground caller skips the space
  // tiers outright (set_ground_only) -- the degraded bent-pipe-only mode.
  if (!ground_only_ && !ec_mode && fleet_->cache_enabled(serving) &&
      fleet_->cache(serving).access(item.id, now)) {
    FetchResult result{FetchTier::kServingSatellite, uplink * 2.0 + space_overhead,
                       0, serving, false};
    result.serving_satellite = serving;
    count_served(result);
    if (trace != nullptr) {
      const std::uint32_t span = trace->open("tier:serving-satellite", parent_span);
      trace->attr(span, "satellite", std::to_string(serving));
      trace->set_duration(span, result.rtt);
      trace->metric(span, "uplink_rtt_ms", uplink.value() * 2.0);
      trace->metric(span, "service_overhead_ms", space_overhead.value());
    }
    return result;
  }
  if (trace != nullptr) {
    const std::uint32_t span = trace->open("tier:serving-satellite", parent_span);
    trace->attr(span, "satellite", std::to_string(serving));
    trace->attr(span, "outcome",
                fleet_->cache_enabled(serving) ? "miss" : "cache-disabled");
  }

  // Tier (ii): nearest replica over ISLs.  Offline holders carry no ISL
  // edges and crashed caches are not cache_enabled, so the lookup only ever
  // surfaces live, reachable replicas.
  if (const auto found = ground_only_ ? std::optional<LookupResult>{}
                         : placement_map_ != nullptr
                             ? map_lookup(serving, item.id)
                             : find_replica(network_->isl(), *fleet_, serving, item.id,
                                            config_.max_isl_hops)) {
    // Register the hit on the holder's cache.
    (void)fleet_->cache(found->satellite).access(item.id, now);
    const bool admit =
        config_.admit_on_fetch && !ec_mode && fleet_->cache_enabled(serving);
    if (admit) (void)fleet_->cache(serving).insert(item, now);
    FetchResult result{FetchTier::kIslNeighbor,
                       (uplink + found->isl_latency) * 2.0 + space_overhead,
                       found->hops, found->satellite, false};
    result.serving_satellite = serving;
    if (config_.record_paths) {
      if (const auto tree = network_->isl().sssp_from(serving);
          tree->reachable(found->satellite)) {
        const auto path = tree->path_to(found->satellite);
        result.isl_path.assign(path.nodes.begin(), path.nodes.end());
      }
    }
    count_served(result);
    static obs::CounterHandle admit_total{"spacecdn_cache_admit_total"};
    static obs::HistogramHandle isl_hops{"spacecdn_isl_hops", {}, {0.0, 16.0, 16}};
    if (admit) admit_total.inc();
    isl_hops.observe(found->hops);
    if (trace != nullptr) {
      const std::uint32_t span = trace->open("tier:isl-neighbor", parent_span);
      trace->attr(span, "holder", std::to_string(found->satellite));
      if (const auto tree = network_->isl().sssp_from(serving);
          tree->reachable(found->satellite)) {
        trace->attr(span, "isl_path", render_path(tree->path_to(found->satellite).nodes));
      }
      trace->metric(span, "hops", found->hops);
      trace->metric(span, "isl_one_way_ms", found->isl_latency.value());
      if (admit) trace->attr(span, "admitted", "true");
      trace->set_duration(span, result.rtt);
    }
    return result;
  }
  if (trace != nullptr) {
    trace->attr(trace->open("tier:isl-neighbor", parent_span), "outcome", "no-replica");
  }

  // Tier (iii): bent pipe to the ground CDN edge nearest the assigned PoP.
  auto breakdown = network_->router().route_from_satellite(serving, client, country);
  if (!breakdown) {
    static obs::CounterHandle unreachable{"spacecdn_ground_unreachable_total"};
    unreachable.inc();
    if (trace != nullptr) {
      trace->attr(trace->open("tier:ground", parent_span), "outcome", "unreachable");
    }
    return std::nullopt;
  }
  if (CircuitBreaker* breaker = breaker_for(breakdown->gateway);
      breaker != nullptr && !breaker->allow(now)) {
    // Open breaker: skipping the bent pipe beats timing out against it.
    static obs::CounterHandle short_circuit{"spacecdn_breaker_short_circuit_total"};
    short_circuit.inc();
    if (trace != nullptr) {
      const std::uint32_t span = trace->open("tier:ground", parent_span);
      trace->attr(span, "outcome", "breaker-open");
      trace->attr(span, "gateway", std::to_string(breakdown->gateway));
    }
    return std::nullopt;
  }
  const GroundSite& ground = ground_site(breakdown->pop);
  const std::size_t site = ground.site;
  breakdown->pop_to_destination = ground.pop_to_site;

  // The ground fallback rides the ordinary bent pipe, so it pays the full
  // measured Starlink access-layer overhead.
  const Milliseconds access_overhead = network_->access().sample_idle_overhead(rng);
  const Milliseconds client_site_rtt = breakdown->propagation_rtt() + access_overhead;
  const Milliseconds site_origin_rtt = ground.site_origin_rtt;
  const cdn::ServeResult served =
      ground_cdn_->serve(site, item, client_site_rtt, site_origin_rtt, now);

  const bool admit =
      config_.admit_on_fetch && !ec_mode && fleet_->cache_enabled(serving);
  if (admit) (void)fleet_->cache(serving).insert(item, now);
  FetchResult result{FetchTier::kGround, served.first_byte, breakdown->isl_hops, 0,
                     served.hit};
  result.serving_satellite = serving;
  result.gateway = breakdown->gateway;
  if (config_.record_paths) {
    if (const auto tree = network_->isl().sssp_from(serving);
        tree->reachable(breakdown->landing_satellite)) {
      const auto path = tree->path_to(breakdown->landing_satellite);
      result.isl_path.assign(path.nodes.begin(), path.nodes.end());
    }
  }
  count_served(result);
  if (admit) {
    static obs::CounterHandle admit_total{"spacecdn_cache_admit_total"};
    admit_total.inc();
  }
  if (trace != nullptr) {
    const std::uint32_t span = trace->open("tier:ground", parent_span);
    trace->attr(span, "gateway", std::to_string(breakdown->gateway));
    trace->attr(span, "pop", std::to_string(breakdown->pop));
    trace->attr(span, "site", std::to_string(site));
    trace->attr(span, "edge", served.hit ? "hit" : "miss");
    if (admit) trace->attr(span, "admitted", "true");
    trace->metric(span, "isl_hops", breakdown->isl_hops);
    trace->metric(span, "propagation_rtt_ms", breakdown->propagation_rtt().value());
    trace->metric(span, "access_overhead_ms", access_overhead.value());
    trace->metric(span, "site_origin_rtt_ms", site_origin_rtt.value());
    trace->set_duration(span, result.rtt);
  }
  return result;
}

std::optional<LookupResult> SpaceCdnRouter::map_lookup(std::uint32_t serving,
                                                       cdn::ContentId id) const {
  struct Candidate {
    Milliseconds latency{0.0};
    std::uint32_t hops = 0;
    std::uint32_t sat = 0;
  };
  std::vector<Candidate> live;
  const auto tree = network_->isl().sssp_from(serving);
  for (const std::uint32_t sat : placement_map_->replicas(id)) {
    // Holders must actually carry the copy: a freshly restored cache is a
    // map member again before the repair daemon has refilled it.
    if (!fleet_->cache_enabled(sat) || !fleet_->cache(sat).contains(id)) continue;
    if (!tree->reachable(sat)) continue;
    const std::uint32_t hops = sat == serving ? 0 : tree->hops_to(sat);
    if (hops > config_.max_isl_hops) continue;
    live.push_back({tree->distance(sat), hops, sat});
  }
  const std::uint32_t need = placement_map_->min_live_for_read();
  if (live.size() < need) return std::nullopt;
  // Fragments are fetched in parallel, so the read completes when the
  // `need`-th nearest holder responds (for whole replicas need == 1: the
  // nearest holder).  Ties break by satellite id for determinism.
  std::sort(live.begin(), live.end(), [](const Candidate& a, const Candidate& b) {
    return a.latency.value() != b.latency.value() ? a.latency.value() < b.latency.value()
                                                  : a.sat < b.sat;
  });
  const Candidate& bound = live[need - 1];
  return LookupResult{bound.sat, bound.hops, bound.latency};
}

std::optional<std::uint32_t> SpaceCdnRouter::healthy_serving_satellite(
    const geo::GeoPoint& client, std::optional<std::uint32_t> exclude) const {
  const auto& snapshot = network_->snapshot();
  const auto visible = snapshot.visible_satellites(
      client, network_->config().user_min_elevation_deg);
  std::optional<std::uint32_t> best_preferred;
  std::optional<std::uint32_t> best_any;
  double best_preferred_range = 0.0;
  double best_any_range = 0.0;
  for (const std::uint32_t sat : visible) {
    if (!fleet_->online(sat)) continue;
    if (exclude && sat == *exclude) continue;
    // At a single-altitude shell, minimum slant range == maximum elevation.
    const double range = snapshot.slant_range(client, sat).value();
    if (!best_any || range < best_any_range) {
      best_any = sat;
      best_any_range = range;
    }
    if (serving_filter_ && !serving_filter_(sat)) continue;
    if (!best_preferred || range < best_preferred_range) {
      best_preferred = sat;
      best_preferred_range = range;
    }
  }
  // When the filter vetoes every visible satellite, the best vetoed one
  // still serves: availability beats politeness.
  return best_preferred ? best_preferred : best_any;
}

CircuitBreaker* SpaceCdnRouter::breaker_for(std::size_t gateway) const {
  if (config_.resilience.breaker.failure_threshold == 0) return nullptr;
  if (gateway_breakers_.empty()) {
    gateway_breakers_.assign(network_->ground().gateway_count(),
                             CircuitBreaker(config_.resilience.breaker));
    for (std::size_t g = 0; g < gateway_breakers_.size(); ++g) wire_breaker(g);
  }
  return &gateway_breakers_[gateway];
}

void SpaceCdnRouter::wire_breaker(std::size_t gateway) const {
  if (!breaker_listener_) {
    gateway_breakers_[gateway].set_transition_hook({});
    return;
  }
  gateway_breakers_[gateway].set_transition_hook(
      [this, gateway](CircuitBreaker::State from, CircuitBreaker::State to,
                      Milliseconds at) {
        breaker_listener_(gateway, from, to, at);
      });
}

void SpaceCdnRouter::set_breaker_listener(BreakerListener listener) {
  breaker_listener_ = std::move(listener);
  for (std::size_t g = 0; g < gateway_breakers_.size(); ++g) wire_breaker(g);
}

const CircuitBreaker& SpaceCdnRouter::gateway_breaker(std::size_t gateway) const {
  static const CircuitBreaker disabled{};
  const CircuitBreaker* breaker = breaker_for(gateway);
  return breaker != nullptr ? *breaker : disabled;
}

std::uint64_t SpaceCdnRouter::breaker_opens() const noexcept {
  std::uint64_t total = 0;
  for (const CircuitBreaker& breaker : gateway_breakers_) total += breaker.opens();
  return total;
}

std::uint64_t SpaceCdnRouter::breaker_short_circuits() const noexcept {
  std::uint64_t total = 0;
  for (const CircuitBreaker& breaker : gateway_breakers_) {
    total += breaker.short_circuits();
  }
  return total;
}

std::size_t SpaceCdnRouter::breaker_open_count() const noexcept {
  std::size_t open = 0;
  for (const CircuitBreaker& breaker : gateway_breakers_) {
    if (breaker.state() == CircuitBreaker::State::kOpen) ++open;
  }
  return open;
}

ResilientFetchResult SpaceCdnRouter::fetch_resilient(const geo::GeoPoint& client,
                                                     const data::CountryInfo& country,
                                                     const cdn::ContentItem& item,
                                                     des::Rng& rng, Milliseconds now) {
  SPACECDN_PROFILE("SpaceCdnRouter::fetch_resilient");
  static obs::CounterHandle fetch_total{"spacecdn_resilient_fetch_total"};
  static obs::CounterHandle success_total{"spacecdn_resilient_success_total"};
  static obs::CounterHandle failure_total{"spacecdn_resilient_failure_total"};
  static obs::CounterHandle attempts_total{"spacecdn_resilient_attempts_total"};
  static obs::CounterHandle retries_total{"spacecdn_resilient_retries_total"};
  static obs::CounterHandle deadline_total{"spacecdn_resilient_deadline_exceeded_total"};
  static obs::CounterHandle hedge_issued{"spacecdn_hedge_issued_total"};
  static obs::CounterHandle hedge_won{"spacecdn_hedge_won_total"};
  static obs::HistogramHandle latency_ms{
      "spacecdn_resilient_latency_ms", {}, {0.0, 10'000.0, 200}};
  static obs::HistogramHandle backoff_ms{"spacecdn_backoff_ms", {}, {0.0, 5'000.0, 100}};
  constexpr std::array<const char*, 4> kOutcomes{"no-coverage", "no-path", "lost",
                                                 "timeout"};
  static std::array<obs::CounterHandle, 4> attempt_failed{
      obs::CounterHandle{"spacecdn_resilient_attempt_failed_total",
                         {{"outcome", kOutcomes[0]}}},
      obs::CounterHandle{"spacecdn_resilient_attempt_failed_total",
                         {{"outcome", kOutcomes[1]}}},
      obs::CounterHandle{"spacecdn_resilient_attempt_failed_total",
                         {{"outcome", kOutcomes[2]}}},
      obs::CounterHandle{"spacecdn_resilient_attempt_failed_total",
                         {{"outcome", kOutcomes[3]}}}};

  const ResilienceConfig& rc = config_.resilience;
  obs::Tracer* tracer = obs::tracer();
  std::optional<obs::TraceBuilder> trace;
  if (tracer != nullptr) {
    trace.emplace("fetch_resilient", now);
    trace->attr(trace->root(), "item", std::to_string(item.id));
  }
  fetch_total.inc();

  ResilientFetchResult out;
  double waited = 0.0;
  const double deadline = rc.deadline.value();  // 0 = unbounded
  for (std::uint32_t attempt = 0; attempt < std::max(rc.max_attempts, 1u); ++attempt) {
    // An attempt may spend at most the per-attempt timeout, clipped to
    // whatever deadline budget is left.
    double budget = rc.attempt_timeout.value();
    if (deadline > 0.0) {
      const double remaining = deadline - waited;
      if (remaining <= 0.0) {
        out.deadline_exceeded = true;
        break;
      }
      budget = std::min(budget, remaining);
    }
    ++out.attempts;
    std::uint32_t attempt_span = obs::kNoParent;
    if (trace) {
      attempt_span = trace->open("attempt");
      trace->attr(attempt_span, "n", std::to_string(attempt));
      trace->set_start(attempt_span, Milliseconds{waited});
    }
    const auto serving = healthy_serving_satellite(client);
    if (trace) {
      const std::uint32_t sel = trace->open("serving-selection", attempt_span);
      trace->set_start(sel, Milliseconds{waited});
      trace->attr(sel, "satellite", serving ? std::to_string(*serving) : "none");
    }
    std::optional<FetchResult> served;
    if (serving) {
      served = attempt_from(*serving, client, country, item, rng, now,
                            trace ? &*trace : nullptr, attempt_span);
      if (trace) {
        // Tier spans of this attempt start where the attempt started.
        for (std::uint32_t s = attempt_span + 2;
             s < static_cast<std::uint32_t>(trace->span_count()); ++s) {
          trace->set_start(s, Milliseconds{waited});
        }
      }
    }
    // The response can be lost in flight even when a path exists; the
    // server-side effects (cache admissions) still happened.
    const bool lost = rc.transient_loss > 0.0 && rng.chance(rc.transient_loss);
    if (served && !lost && served->rtt.value() <= budget) {
      if (served->gateway) {
        if (CircuitBreaker* breaker = breaker_for(*served->gateway)) {
          breaker->record_success();
        }
      }
      // Tail hedge: a response slower than the hedge delay races a second
      // request from the next-best serving satellite; the client keeps
      // whichever lands first (tail-at-scale's deferred hedging, so at most
      // ~the slowest percentile of requests pay the extra fetch).
      if (rc.hedge_delay.value() > 0.0 && served->rtt > rc.hedge_delay) {
        out.hedged = true;
        hedge_issued.inc();
        const auto second = healthy_serving_satellite(client, serving);
        std::optional<FetchResult> hedge;
        if (second) {
          hedge = attempt_from(*second, client, country, item, rng, now,
                               trace ? &*trace : nullptr, attempt_span);
        }
        const bool hedge_lost =
            hedge && rc.transient_loss > 0.0 && rng.chance(rc.transient_loss);
        if (hedge && !hedge_lost) {
          const Milliseconds hedge_rtt = rc.hedge_delay + hedge->rtt;
          if (hedge_rtt < served->rtt && hedge_rtt.value() <= budget) {
            hedge->rtt = hedge_rtt;  // client-observed: issued hedge_delay in
            served = hedge;
            out.hedge_won = true;
            hedge_won.inc();
          }
        }
        if (trace) {
          trace->attr(attempt_span, "hedged", out.hedge_won ? "won" : "lost");
        }
      }
      out.success = true;
      out.served = served;
      out.total_latency = Milliseconds{waited} + served->rtt;
      out.retries = out.attempts - 1;
      success_total.inc();
      attempts_total.inc(out.attempts);
      retries_total.inc(out.retries);
      latency_ms.observe(out.total_latency.value());
      if (trace) {
        trace->attr(attempt_span, "outcome", "served");
        trace->set_duration(attempt_span, served->rtt);
        trace->set_duration(trace->root(), out.total_latency);
        tracer->record(trace->finish(/*failed=*/false));
      }
      return out;
    }
    // Timed out, lost, or no path: the client burns the attempt budget, then
    // backs off exponentially before trying again.
    const std::size_t outcome = !serving ? 0 : (!served ? 1 : (lost ? 2 : 3));
    if (served && served->gateway) {
      if (CircuitBreaker* breaker = breaker_for(*served->gateway)) {
        breaker->record_failure(now);
      }
    }
    attempt_failed[outcome].inc();
    if (trace) {
      trace->attr(attempt_span, "outcome", kOutcomes[outcome]);
      trace->set_duration(attempt_span, Milliseconds{budget});
    }
    waited += budget;
    if (attempt + 1 < rc.max_attempts) {
      double backoff = rc.backoff_base.value() * std::pow(rc.backoff_multiplier, attempt);
      if (rc.backoff_jitter > 0.0) {
        backoff *= 1.0 + rc.backoff_jitter * rng.uniform(-1.0, 1.0);
      }
      backoff_ms.observe(backoff);
      if (trace) {
        const std::uint32_t span = trace->open("backoff");
        trace->set_start(span, Milliseconds{waited});
        trace->set_duration(span, Milliseconds{backoff});
      }
      waited += backoff;
      // A backoff never outlives the deadline: the client gives up then.
      if (deadline > 0.0) waited = std::min(waited, deadline);
    }
  }
  out.retries = out.attempts == 0 ? 0 : out.attempts - 1;
  out.total_latency = Milliseconds{waited};
  failure_total.inc();
  attempts_total.inc(out.attempts);
  retries_total.inc(out.retries);
  if (out.deadline_exceeded) deadline_total.inc();
  if (trace) {
    trace->set_duration(trace->root(), out.total_latency);
    tracer->record(trace->finish(/*failed=*/true));
  }
  // A fetch that exhausted every attempt is exactly the incident the flight
  // recorder exists for: dump the requests leading up to it.
  if (auto* fr = obs::recorder()) fr->trip("fetch_resilient-exhausted", now);
  return out;
}

}  // namespace spacecdn::space
