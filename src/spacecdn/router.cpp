#include "spacecdn/router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>

#include "geo/propagation.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace spacecdn::space {

namespace {

constexpr obs::HistogramOptions kRttBuckets{0.0, 2'000.0, 200};

/// Satellites on the shortest ISL path `from` -> `to`, `from` first; empty
/// when `to` is unreachable.
std::vector<std::uint32_t> isl_path(const lsn::IslNetwork& isl, std::uint32_t from,
                                    std::uint32_t to) {
  const auto tree = isl.sssp_from(from);
  if (!tree->reachable(to)) return {};
  const auto path = tree->path_to(to);
  return {path.nodes.begin(), path.nodes.end()};
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

std::size_t SpaceCdnRouter::ClientKeyHash::operator()(
    const ClientKey& key) const noexcept {
  // splitmix64's finaliser over a fold of the three coordinates.
  std::uint64_t h = key.lat ^ (key.lon * 0x9e3779b97f4a7c15ULL) ^
                    (key.alt * 0xc2b2ae3d27d4eb4fULL);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

SpaceCdnRouter::ClientGeometry& SpaceCdnRouter::client_geometry(
    const geo::GeoPoint& client) const {
  const auto& snapshot = network_->snapshot();
  if (snapshot.epoch() != geometry_epoch_) {
    geometry_.clear();
    ranked_.clear();
    geometry_epoch_ = snapshot.epoch();
  }
  ClientGeometry& geometry =
      geometry_[ClientKey{std::bit_cast<std::uint64_t>(client.lat_deg),
                          std::bit_cast<std::uint64_t>(client.lon_deg),
                          std::bit_cast<std::uint64_t>(client.alt_km)}];
  if (geometry.serving == ClientGeometry::kUnknown) {
    const auto serving =
        snapshot.serving_satellite(client, network_->config().user_min_elevation_deg);
    geometry.serving = serving ? *serving : ClientGeometry::kUncovered;
    if (serving) geometry.serving_range = snapshot.slant_range(client, *serving);
  }
  return geometry;
}

std::optional<SpaceCdnRouter::Candidate> SpaceCdnRouter::healthy_serving_satellite(
    const geo::GeoPoint& client, std::optional<std::uint32_t> exclude) const {
  ClientGeometry& geometry = client_geometry(client);
  const auto top = geometry.top();
  if (!top) return std::nullopt;
  const auto usable = [&](std::uint32_t sat) {
    return fleet_->online(sat) && sat != exclude;
  };
  const auto preferred = [&](std::uint32_t sat) {
    return usable(sat) && (!serving_filter_ || serving_filter_(sat));
  };
  if (preferred(top->satellite)) return top;
  const auto& snapshot = network_->snapshot();
  if (geometry.ranked_begin == ClientGeometry::kUnknown) {
    const auto ranked = snapshot.ranked_visible_satellites(
        client, network_->config().user_min_elevation_deg);
    geometry.ranked_begin = static_cast<std::uint32_t>(ranked_.size());
    geometry.ranked_count = static_cast<std::uint32_t>(ranked.size());
    ranked_.insert(ranked_.end(), ranked.begin(), ranked.end());
  }
  // When the filter vetoes every usable satellite, the best vetoed one
  // still serves: availability beats politeness.
  const auto first = ranked_.begin() + geometry.ranked_begin;
  const auto last = first + geometry.ranked_count;
  auto chosen = std::find_if(first, last, preferred);
  if (chosen == last) chosen = std::find_if(first, last, usable);
  if (chosen == last) return std::nullopt;
  return Candidate{*chosen, snapshot.slant_range(client, *chosen)};
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

  const auto serving = client_geometry(client).top();
  if (trace) {
    const std::uint32_t sel = trace->open("serving-selection");
    trace->attr(sel, "satellite", serving ? std::to_string(serving->satellite) : "none");
  }
  if (!serving) {
    static obs::CounterHandle no_coverage{"spacecdn_fetch_no_coverage_total"};
    no_coverage.inc();
    if (tracer != nullptr) tracer->record(trace->finish(/*failed=*/true));
    return std::nullopt;
  }

  auto result = finish_attempt(attempt_from(*serving, client, country, item, rng, now),
                               trace ? &*trace : nullptr, obs::kNoParent,
                               Milliseconds{0.0});
  if (tracer != nullptr) {
    if (result) trace->set_duration(trace->root(), result->rtt);
    tracer->record(trace->finish(/*failed=*/!result.has_value()));
  }
  return result;
}

SpaceCdnRouter::Attempt SpaceCdnRouter::attempt_from(Candidate serving_choice,
                                                     const geo::GeoPoint& client,
                                                     const data::CountryInfo& country,
                                                     const cdn::ContentItem& item,
                                                     des::Rng& rng, Milliseconds now) {
  const std::uint32_t serving = serving_choice.satellite;
  Attempt attempt;
  FetchResult& result = attempt.result;
  LatencyBreakdown& latency = result.latency;
  result.serving_satellite = serving;
  latency.uplink = geo::propagation_delay(serving_choice.range, geo::Medium::kVacuum);
  const Milliseconds space_overhead{rng.lognormal_median(
      config_.service_overhead_rtt.value(), config_.service_overhead_sigma)};

  // Under an erasure-coded placement map no single satellite holds a whole
  // object, so tier (i) and whole-object admission are meaningless: every
  // space fetch reconstructs from fragments in tier (ii).
  const bool ec_mode =
      placement_map_ != nullptr && placement_map_->min_live_for_read() > 1;
  const bool cache_enabled = fleet_->cache_enabled(serving);
  const bool admit = config_.admit_on_fetch && !ec_mode && cache_enabled;

  // Tier (i): overhead satellite.  A shed-to-ground caller skips the space
  // tiers outright (set_ground_only) -- the degraded bent-pipe-only mode.
  if (!ground_only_ && !ec_mode && cache_enabled &&
      fleet_->cache(serving).access(item.id, now)) {
    result.tier = FetchTier::kServingSatellite;
    latency.service_overhead = space_overhead;
    result.rtt = latency.uplink * 2.0 + space_overhead;
    result.source_satellite = serving;
    return attempt;
  }
  attempt.tier_i_miss = cache_enabled ? "miss" : "cache-disabled";

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
    if (admit) (void)fleet_->cache(serving).insert(item, now);
    attempt.admitted = admit;
    result.tier = FetchTier::kIslNeighbor;
    latency.service_overhead = space_overhead;
    latency.isl = found->isl_latency;
    result.rtt = (latency.uplink + found->isl_latency) * 2.0 + space_overhead;
    result.isl_hops = found->hops;
    result.source_satellite = found->satellite;
    if (config_.record_paths) {
      result.isl_path = isl_path(network_->isl(), serving, found->satellite);
    }
    return attempt;
  }

  // Tier (iii): bent pipe to the ground CDN edge nearest the assigned PoP.
  auto route = network_->router().route_from_satellite(serving, client, country);
  if (!route) {
    attempt.failure = "unreachable";
    return attempt;
  }
  result.gateway = route->gateway;
  if (CircuitBreaker* breaker = breaker_for(route->gateway);
      breaker != nullptr && !breaker->allow(now)) {
    // Open breaker: skipping the bent pipe beats timing out against it.
    attempt.failure = "breaker-open";
    return attempt;
  }
  const GroundSite& ground = ground_site(route->pop);
  route->pop_to_destination = ground.pop_to_site;
  latency.bent_pipe_rtt = route->propagation_rtt();
  latency.pop_to_site = ground.pop_to_site;
  latency.site_origin_rtt = ground.site_origin_rtt;
  // The ground fallback rides the ordinary bent pipe, so it pays the full
  // measured Starlink access-layer overhead.
  latency.access_overhead = network_->access().sample_idle_overhead(rng);
  const cdn::ServeResult served = ground_cdn_->serve(
      ground.site, item, latency.bent_pipe_rtt + latency.access_overhead,
      latency.site_origin_rtt, now);
  if (admit) (void)fleet_->cache(serving).insert(item, now);
  attempt.admitted = admit;
  attempt.pop = route->pop;
  attempt.site = ground.site;
  result.tier = FetchTier::kGround;
  result.rtt = served.first_byte;
  result.isl_hops = route->isl_hops;
  result.ground_cache_hit = served.hit;
  if (config_.record_paths) {
    result.isl_path = isl_path(network_->isl(), serving, route->landing_satellite);
  }
  return attempt;
}

std::optional<FetchResult> SpaceCdnRouter::finish_attempt(Attempt attempt,
                                                          obs::TraceBuilder* trace,
                                                          std::uint32_t parent_span,
                                                          Milliseconds start) const {
  // The handles live across calls so steady-state accounting skips the
  // by-name lookup (this runs once per attempt -- the router's hottest
  // metric site).
  static std::array<obs::CounterHandle, 3> served_total{
      obs::CounterHandle{"spacecdn_fetch_served_total", {{"tier", "serving-satellite"}}},
      obs::CounterHandle{"spacecdn_fetch_served_total", {{"tier", "isl-neighbor"}}},
      obs::CounterHandle{"spacecdn_fetch_served_total", {{"tier", "ground"}}}};
  static std::array<obs::HistogramHandle, 3> rtt_ms{
      obs::HistogramHandle{"spacecdn_fetch_rtt_ms", {{"tier", "serving-satellite"}},
                           kRttBuckets},
      obs::HistogramHandle{"spacecdn_fetch_rtt_ms", {{"tier", "isl-neighbor"}},
                           kRttBuckets},
      obs::HistogramHandle{"spacecdn_fetch_rtt_ms", {{"tier", "ground"}}, kRttBuckets}};
  static obs::CounterHandle ground_hit{"spacecdn_ground_cache_total",
                                       {{"result", "hit"}}};
  static obs::CounterHandle ground_miss{"spacecdn_ground_cache_total",
                                        {{"result", "miss"}}};
  static obs::CounterHandle admit_total{"spacecdn_cache_admit_total"};
  static obs::HistogramHandle isl_hops{"spacecdn_isl_hops", {}, {0.0, 16.0, 16}};
  static obs::CounterHandle unreachable{"spacecdn_ground_unreachable_total"};
  static obs::CounterHandle short_circuit{"spacecdn_breaker_short_circuit_total"};
  const FetchResult& result = attempt.result;
  const LatencyBreakdown& latency = result.latency;
  const bool served = attempt.failure.empty();
  const FetchTier tier = result.tier;
  if (served) {
    served_total[static_cast<std::size_t>(tier)].inc();
    rtt_ms[static_cast<std::size_t>(tier)].observe(result.rtt.value());
    if (tier == FetchTier::kGround) {
      (result.ground_cache_hit ? ground_hit : ground_miss).inc();
    }
    if (attempt.admitted) admit_total.inc();
    if (tier == FetchTier::kIslNeighbor) isl_hops.observe(result.isl_hops);
  } else {
    (attempt.failure == "unreachable" ? unreachable : short_circuit).inc();
  }

  if (trace != nullptr) {
    const auto open = [&](const char* name) {
      const std::uint32_t span = trace->open(name, parent_span);
      trace->set_start(span, start);
      return span;
    };
    std::uint32_t span = open("tier:serving-satellite");
    trace->attr(span, "satellite", std::to_string(result.serving_satellite));
    if (served && tier == FetchTier::kServingSatellite) {
      trace->metric(span, "uplink_rtt_ms", latency.uplink.value() * 2.0);
      trace->metric(span, "service_overhead_ms", latency.service_overhead.value());
    } else {
      trace->attr(span, "outcome", std::string(attempt.tier_i_miss));
      span = open("tier:isl-neighbor");
      if (served && tier == FetchTier::kIslNeighbor) {
        trace->attr(span, "holder", std::to_string(result.source_satellite));
        const auto path = config_.record_paths
                              ? result.isl_path
                              : isl_path(network_->isl(), result.serving_satellite,
                                         result.source_satellite);
        std::string rendered;  // "a>b>c"
        for (const std::uint32_t sat : path) {
          if (!rendered.empty()) rendered += '>';
          rendered += std::to_string(sat);
        }
        if (!path.empty()) trace->attr(span, "isl_path", rendered);
        trace->metric(span, "hops", result.isl_hops);
        trace->metric(span, "isl_one_way_ms", latency.isl.value());
      } else {
        trace->attr(span, "outcome", "no-replica");
        span = open("tier:ground");
        if (!served) trace->attr(span, "outcome", std::string(attempt.failure));
        if (result.gateway) trace->attr(span, "gateway", std::to_string(*result.gateway));
        if (served) {
          trace->attr(span, "pop", std::to_string(attempt.pop));
          trace->attr(span, "site", std::to_string(attempt.site));
          trace->attr(span, "edge", result.ground_cache_hit ? "hit" : "miss");
          trace->metric(span, "isl_hops", result.isl_hops);
          trace->metric(span, "propagation_rtt_ms", latency.bent_pipe_rtt.value());
          trace->metric(span, "access_overhead_ms", latency.access_overhead.value());
          trace->metric(span, "site_origin_rtt_ms", latency.site_origin_rtt.value());
        }
      }
    }
    if (served) {
      if (attempt.admitted) trace->attr(span, "admitted", "true");
      trace->set_duration(span, result.rtt);
    }
  }
  if (!served) return std::nullopt;
  return std::move(attempt.result);
}

std::optional<LookupResult> SpaceCdnRouter::map_lookup(std::uint32_t serving,
                                                       cdn::ContentId id) const {
  std::vector<LookupResult> live;
  const auto tree = network_->isl().sssp_from(serving);
  for (const std::uint32_t sat : placement_map_->replicas(id)) {
    // Holders must actually carry the copy: a freshly restored cache is a
    // map member again before the repair daemon has refilled it.
    if (!fleet_->cache_enabled(sat) || !fleet_->cache(sat).contains(id)) continue;
    if (!tree->reachable(sat)) continue;
    const std::uint32_t hops = sat == serving ? 0 : tree->hops_to(sat);
    if (hops > config_.max_isl_hops) continue;
    live.push_back({sat, hops, tree->distance(sat)});
  }
  const std::uint32_t need = placement_map_->min_live_for_read();
  if (live.size() < need) return std::nullopt;
  // Fragments are fetched in parallel, so the read completes when the
  // `need`-th nearest holder responds (for whole replicas need == 1: the
  // nearest holder).  Ties break by satellite id for determinism.
  std::sort(live.begin(), live.end(), [](const LookupResult& a, const LookupResult& b) {
    return a.isl_latency.value() != b.isl_latency.value()
               ? a.isl_latency.value() < b.isl_latency.value()
               : a.satellite < b.satellite;
  });
  return live[need - 1];
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
  obs::TraceBuilder* const tb = trace ? &*trace : nullptr;
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
    const auto serving = healthy_serving_satellite(client);
    std::uint32_t attempt_span = obs::kNoParent;
    if (trace) {
      attempt_span = trace->open("attempt");
      trace->attr(attempt_span, "n", std::to_string(attempt));
      trace->set_start(attempt_span, Milliseconds{waited});
      const std::uint32_t sel = trace->open("serving-selection", attempt_span);
      trace->set_start(sel, Milliseconds{waited});
      trace->attr(sel, "satellite", serving ? std::to_string(serving->satellite) : "none");
    }
    std::optional<FetchResult> served;
    if (serving) {
      served = finish_attempt(attempt_from(*serving, client, country, item, rng, now), tb,
                              attempt_span, Milliseconds{waited});
    }
    // The response can be lost in flight even when a path exists; the
    // server-side effects (cache admissions) still happened.
    const bool lost = rc.transient_loss > 0.0 && rng.chance(rc.transient_loss);
    CircuitBreaker* const breaker =
        served && served->gateway ? breaker_for(*served->gateway) : nullptr;
    if (served && !lost && served->rtt.value() <= budget) {
      if (breaker != nullptr) breaker->record_success();
      // Tail hedge: a response slower than the hedge delay races a second
      // request from the next-best serving satellite; the client keeps
      // whichever lands first (tail-at-scale's deferred hedging, so at most
      // ~the slowest percentile of requests pay the extra fetch).
      // A client that sees no second usable satellite sends no hedge.
      const auto second = rc.hedge_delay.value() > 0.0 && served->rtt > rc.hedge_delay
                              ? healthy_serving_satellite(client, serving->satellite)
                              : std::nullopt;
      if (second) {
        out.hedged = true;
        hedge_issued.inc();
        // The hedge's spans start where it was issued.
        std::optional<FetchResult> hedge =
            finish_attempt(attempt_from(*second, client, country, item, rng, now), tb,
                           attempt_span, Milliseconds{waited} + rc.hedge_delay);
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
        if (trace) trace->attr(attempt_span, "hedged", out.hedge_won ? "won" : "lost");
      }
      out.success = true;
      out.total_latency = Milliseconds{waited} + served->rtt;
      latency_ms.observe(out.total_latency.value());
      if (trace) {
        trace->attr(attempt_span, "outcome", "served");
        trace->set_duration(attempt_span, served->rtt);
      }
      out.served = std::move(served);
      break;
    }
    // Timed out, lost, or no path: the client burns the attempt budget, then
    // backs off exponentially before trying again.
    const std::size_t outcome = !serving ? 0 : (!served ? 1 : (lost ? 2 : 3));
    if (breaker != nullptr) breaker->record_failure(now);
    attempt_failed[outcome].inc();
    if (trace) {
      trace->attr(attempt_span, "outcome", kOutcomes[outcome]);
      trace->set_duration(attempt_span, Milliseconds{budget});
    }
    waited += budget;
    if (attempt + 1 < rc.max_attempts) {
      double backoff = rc.backoff_base.value() * std::pow(2.0, attempt);
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
  if (!out.success) out.total_latency = Milliseconds{waited};
  out.retries = out.attempts == 0 ? 0 : out.attempts - 1;
  (out.success ? success_total : failure_total).inc();
  attempts_total.inc(out.attempts);
  retries_total.inc(out.retries);
  if (out.deadline_exceeded) deadline_total.inc();
  if (tracer != nullptr) {
    trace->set_duration(trace->root(), out.total_latency);
    tracer->record(trace->finish(/*failed=*/!out.success));
  }
  // A fetch that exhausted every attempt is exactly the incident the flight
  // recorder exists for: dump the requests leading up to it.
  auto* fr = obs::recorder();
  if (!out.success && fr != nullptr) fr->trip("fetch_resilient-exhausted", now);
  return out;
}

}  // namespace spacecdn::space
