// The SpaceCDN request router: the paper's three-tier fetch (Figure 6).
//
//   (i)  content cached on the satellite directly overhead -> fetch it
//        straight down (red arrow);
//   (ii) otherwise route over ISLs to the nearest satellite with the object
//        (blue arrow);
//   (iii) otherwise fall back to the ground cache near the gateway / PoP
//        (black arrow) -- i.e. today's bent-pipe CDN path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cdn/deployment.hpp"
#include "lsn/starlink.hpp"
#include "spacecdn/circuit_breaker.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/lookup.hpp"
#include "spacecdn/placement_map.hpp"

namespace spacecdn::obs {
class TraceBuilder;
}

namespace spacecdn::space {

/// Where a request was ultimately served from.
enum class FetchTier {
  kServingSatellite,  ///< tier (i): the overhead satellite's cache
  kIslNeighbor,       ///< tier (ii): a nearby satellite over ISLs
  kGround,            ///< tier (iii): ground CDN via bent pipe
};

[[nodiscard]] std::string_view to_string(FetchTier tier) noexcept;

/// Where a fetch's first-byte round trip went (simulated ms), in the
/// components of Bose et al.'s Starlink web-latency study; each tier fills
/// what it charges.  Tier (i): rtt == uplink*2 + service_overhead; tier (ii):
/// rtt == (uplink + isl)*2 + service_overhead; tier (iii): rtt ==
/// bent_pipe_rtt + access_overhead (+ site_origin_rtt on an edge miss).  A
/// won hedge's rtt also carries the hedge delay.
struct LatencyBreakdown {
  Milliseconds uplink{0.0};            ///< one way, client -> serving satellite
  Milliseconds service_overhead{0.0};  ///< satellite cache fetch (tiers i/ii)
  Milliseconds isl{0.0};               ///< one way, serving -> holder (tier ii)
  Milliseconds bent_pipe_rtt{0.0};     ///< propagation, client <-> edge site
  Milliseconds access_overhead{0.0};   ///< Starlink access layer (tier iii)
  Milliseconds pop_to_site{0.0};  ///< one way, PoP -> edge (inside bent_pipe_rtt)
  Milliseconds site_origin_rtt{0.0};   ///< edge site <-> origin (tier iii)
};

/// Outcome of one SpaceCDN fetch.
struct FetchResult {
  FetchTier tier = FetchTier::kGround;
  /// Client-observed first-byte round trip (includes access overhead).
  Milliseconds rtt{0.0};
  LatencyBreakdown latency;
  std::uint32_t isl_hops = 0;     ///< hops used in tier (ii) / ground path
  std::uint32_t source_satellite = 0;  ///< holder for tiers (i)/(ii)
  bool ground_cache_hit = false;  ///< tier (iii): did the ground edge hit?
  /// The satellite overhead of the client that served the downlink.
  std::uint32_t serving_satellite = 0;
  /// Gateway index of the bent-pipe leg (tier iii only).
  std::optional<std::size_t> gateway;
  /// Satellites traversed over ISLs, serving first (tier ii: serving ->
  /// replica holder; tier iii: serving -> landing satellite).  Filled only
  /// when RouterConfig::record_paths is set -- the load engine needs the
  /// concrete links to charge bandwidth against, latency-only callers
  /// should not pay the allocation.
  std::vector<std::uint32_t> isl_path;
};

/// Retry/timeout policy of the resilient fetch path (fetch_resilient).
///
/// Attempts are bounded; each failed attempt costs the client the attempt
/// timeout plus an exponentially growing backoff before the retry, mirroring
/// an HTTP client riding over a flapping LEO path.
struct ResilienceConfig {
  /// Total tries per fetch (1 initial + max_attempts-1 retries).
  std::uint32_t max_attempts = 4;
  /// A response slower than this counts as a timeout and is retried.
  Milliseconds attempt_timeout{1500.0};
  /// Backoff before retry k (0-based) is base * 2^k.
  Milliseconds backoff_base{50.0};
  /// Probability that an attempt is lost in flight even when a path exists
  /// (handover stalls, transient link flaps below the fault model's
  /// granularity).  0 disables.
  double transient_loss = 0.0;
  /// Per-request deadline budget: attempts and backoffs stop once the
  /// cumulative wait reaches it, and each attempt's timeout is clipped to
  /// the remaining budget (a live-video segment is worthless after its
  /// deadline).  0 = unbounded, the historical behavior.
  Milliseconds deadline{0.0};
  /// Uniform jitter on the exponential backoff: each backoff is scaled by
  /// 1 + backoff_jitter * U(-1, 1), de-synchronising retry storms.  0 keeps
  /// the historical deterministic backoff and draws no RNG.
  double backoff_jitter = 0.0;
  /// Hedged request: when a served attempt's RTT exceeds this delay, a
  /// second request is issued from the next-best serving satellite and the
  /// client takes whichever response lands first (effective RTT
  /// min(primary, hedge_delay + hedge)).  0 disables.  Load callers set it
  /// from a trailing p99 (the classic tail-at-scale rule).
  Milliseconds hedge_delay{0.0};
  /// Per-gateway circuit breaker on the bent-pipe leg; failure_threshold 0
  /// (default) disables it.
  BreakerConfig breaker = {};
};

/// Outcome of one resilient fetch (possibly after retries/escalation).
struct ResilientFetchResult {
  bool success = false;
  /// Tier/RTT/source of the attempt that succeeded (unset on failure).
  std::optional<FetchResult> served;
  /// Everything the client waited: successful RTT plus timeouts and backoff
  /// of the failed attempts before it.
  Milliseconds total_latency{0.0};
  std::uint32_t attempts = 0;
  std::uint32_t retries = 0;
  /// The deadline budget ran out before any attempt succeeded.
  bool deadline_exceeded = false;
  /// A hedged second request was issued / won the race.
  bool hedged = false;
  bool hedge_won = false;
};

/// Router configuration.
struct RouterConfig {
  /// Hop budget of the ISL lookup (tier ii).
  std::uint32_t max_isl_hops = 10;
  /// Admit objects into the serving satellite's cache after a tier (ii)/(iii)
  /// fetch (pull-through caching).
  bool admit_on_fetch = true;
  /// Median request-service overhead of a satellite cache fetch (MAC slot +
  /// onboard processing).  Deliberately far below the bent-pipe access
  /// overhead: the paper's xeoverse simulation charges satellite fetches
  /// propagation plus small processing only, while measured Starlink paths
  /// carry the full scheduler/queueing overhead (see EXPERIMENTS.md).
  Milliseconds service_overhead_rtt{2.0};
  double service_overhead_sigma = 0.3;
  /// Fill FetchResult::isl_path (and tier-iii gateway) so callers can charge
  /// the transfer against the traversed links.  Off by default: it costs a
  /// path reconstruction + allocation per fetch.
  bool record_paths = false;
  /// Retry/timeout policy for fetch_resilient.
  ResilienceConfig resilience = {};
};

/// Serves content requests across the three tiers.
class SpaceCdnRouter {
 public:
  SpaceCdnRouter(const lsn::StarlinkNetwork& network, SatelliteFleet& fleet,
                 cdn::CdnDeployment& ground_cdn, RouterConfig config = {});

  /// Serves one request from a client through its highest-elevation
  /// satellite, blind to faults.  Returns nullopt when the client has no
  /// satellite coverage or no tier can serve.
  [[nodiscard]] std::optional<FetchResult> fetch(const geo::GeoPoint& client,
                                                 const data::CountryInfo& country,
                                                 const cdn::ContentItem& item,
                                                 des::Rng& rng, Milliseconds now);

  /// Fault-aware fetch with bounded retry, per-attempt timeout, and tier
  /// escalation: the highest-elevation online satellite serves (as in
  /// `fetch` when nothing is down), crashed or unreachable replica holders
  /// are skipped (tier ii falls through to the ground), and failed gateways
  /// are routed around.  A fetch only fails outright when every tier is
  /// unreachable on every attempt (e.g. total coverage gap).
  [[nodiscard]] ResilientFetchResult fetch_resilient(const geo::GeoPoint& client,
                                                     const data::CountryInfo& country,
                                                     const cdn::ContentItem& item,
                                                     des::Rng& rng, Milliseconds now);

  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }
  [[nodiscard]] SatelliteFleet& fleet() noexcept { return *fleet_; }

  /// A serving-satellite veto consulted by the resilient path (degradation
  /// policies mark hot satellites).  Return false to steer a request away
  /// from a satellite; when every candidate is vetoed the best vetoed one
  /// still serves (availability beats politeness).
  using ServingFilter = std::function<bool(std::uint32_t satellite)>;
  void set_serving_filter(ServingFilter filter) { serving_filter_ = std::move(filter); }

  /// Directs tier (ii) by a placement map instead of the BFS content
  /// discovery: holders come from map->replicas(id), so the lookup is one
  /// SSSP query over a known holder set rather than a frontier expansion.
  /// Under an erasure-coded map the fetch completes when min_live_for_read
  /// fragments are reachable and its latency is bounded by the slowest
  /// needed fragment; tier (i) and pull-through admission are disabled there
  /// (one satellite holds a fragment, not the object).  nullptr (default)
  /// keeps the BFS path byte-identical to the published figures.  The map
  /// must outlive the router.
  void set_placement_map(const PlacementMap* map) noexcept { placement_map_ = map; }
  [[nodiscard]] const PlacementMap* placement_map() const noexcept {
    return placement_map_;
  }

  /// Overrides the configured hedge delay (load callers re-derive it from a
  /// trailing latency p99 while a run is in flight).  <= 0 disables hedging.
  void set_hedge_delay(Milliseconds delay) noexcept {
    config_.resilience.hedge_delay = delay;
  }

  /// Degraded mode: skip the space tiers and serve everything over the
  /// bent pipe (tier iii), today's ground-CDN path.  The load engine's
  /// shed-to-ground policy flips this around a single re-fetch.
  void set_ground_only(bool ground_only) noexcept { ground_only_ = ground_only; }

  /// The bent-pipe breaker of one gateway (kClosed when breakers are off or
  /// the gateway has never been tried).
  [[nodiscard]] const CircuitBreaker& gateway_breaker(std::size_t gateway) const;
  /// Total open transitions and open-breaker skips across all gateways.
  [[nodiscard]] std::uint64_t breaker_opens() const noexcept;
  [[nodiscard]] std::uint64_t breaker_short_circuits() const noexcept;
  /// Gateways whose breaker is currently open (a series-recorder gauge).
  [[nodiscard]] std::size_t breaker_open_count() const noexcept;

  /// Observes every gateway-breaker state change (the incident timeline's
  /// "breaker.*" events).  Installing a listener wires existing breakers and
  /// any created later; an empty function detaches.
  using BreakerListener =
      std::function<void(std::size_t gateway, CircuitBreaker::State from,
                         CircuitBreaker::State to, Milliseconds at)>;
  void set_breaker_listener(BreakerListener listener);

 private:
  /// A satellite visible from a client and its slant range from that client.
  struct Candidate {
    std::uint32_t satellite = 0;
    Kilometers range{0.0};
  };

  /// What the router knows of one client's sky for one ephemeris snapshot,
  /// filled lazily: the highest-elevation satellite and its slant range on
  /// the first fetch of either kind, the visible satellites in rank order
  /// only when the fault-aware chooser cannot take that one.  Kept to 24
  /// bytes: a run with hundreds of thousands of terminals holds one entry
  /// per client.
  struct ClientGeometry {
    static constexpr std::uint32_t kUnknown = 0xffffffffU;
    static constexpr std::uint32_t kUncovered = 0xfffffffeU;
    Kilometers serving_range{0.0};
    std::uint32_t serving = kUnknown;       ///< or kUncovered
    std::uint32_t ranked_begin = kUnknown;  ///< into ranked_
    std::uint32_t ranked_count = 0;
    /// The highest-elevation satellite; nullopt in a coverage gap.
    [[nodiscard]] std::optional<Candidate> top() const {
      if (serving == kUncovered) return std::nullopt;
      return Candidate{serving, serving_range};
    }
  };

  /// A client's position by the bit patterns of its coordinates, so -0.0
  /// and 0.0 (equal under GeoPoint's operator==) stay distinct keys.
  struct ClientKey {
    std::uint64_t lat = 0;
    std::uint64_t lon = 0;
    std::uint64_t alt = 0;
    bool operator==(const ClientKey&) const = default;
  };
  struct ClientKeyHash {
    std::size_t operator()(const ClientKey& key) const noexcept;
  };

  /// The memo entry of `client` for the current snapshot, its highest-
  /// elevation satellite (EphemerisSnapshot::serving_satellite) filled in;
  /// the whole memo is dropped first when the snapshot epoch has moved.
  [[nodiscard]] ClientGeometry& client_geometry(const geo::GeoPoint& client) const;

  /// The fault-aware serving choice: in rank order (highest elevation
  /// first, ties to the lowest id), the first satellite that is online, is
  /// not `exclude` (a hedge needs a second opinion) and is accepted by the
  /// serving filter; when the filter vetoes all of those, the first that is
  /// online and not `exclude`.  The highest-elevation satellite is checked
  /// first; the ranked list is built, once per snapshot, only when it fails.
  [[nodiscard]] std::optional<Candidate> healthy_serving_satellite(
      const geo::GeoPoint& client,
      std::optional<std::uint32_t> exclude = std::nullopt) const;

  /// Tier-(ii) lookup against the installed placement map: the hop-budgeted
  /// nearest live holder (or, erasure-coded, the min_live_for_read-th
  /// nearest fragment holder, whose latency bounds the reconstruction).
  [[nodiscard]] std::optional<LookupResult> map_lookup(std::uint32_t serving,
                                                       cdn::ContentId id) const;

  /// The breaker guarding one gateway's bent pipe, or nullptr when breakers
  /// are disabled.  Lazily sizes the breaker set on first use.
  [[nodiscard]] CircuitBreaker* breaker_for(std::size_t gateway) const;

  /// Points one breaker's transition hook at breaker_listener_.
  void wire_breaker(std::size_t gateway) const;

  /// One attempt as data: the result with its latency breakdown, and why
  /// each tier that did not serve passed the request on (tier ii only ever
  /// misses with "no-replica").
  struct Attempt {
    FetchResult result;            ///< served when failure is empty
    std::string_view tier_i_miss;  ///< "miss" / "cache-disabled"
    std::string_view failure;  ///< tier iii: "unreachable" / "breaker-open"
    bool admitted = false;  ///< pull-through admission into the serving cache
    std::size_t pop = 0;    ///< tier (iii): the client's PoP
    std::size_t site = 0;   ///< tier (iii): the ground edge that served
  };

  /// One fault-aware attempt across the three tiers from `serving`, whose
  /// slant range prices the uplink.  Tier logic only: no telemetry.
  [[nodiscard]] Attempt attempt_from(Candidate serving, const geo::GeoPoint& client,
                                     const data::CountryInfo& country,
                                     const cdn::ContentItem& item, des::Rng& rng,
                                     Milliseconds now);

  /// Emits an attempt's counters, histograms and (when `trace` is non-null)
  /// tier spans under `parent_span`, each starting at `start`, then hands
  /// over its result (nullopt when tier (iii) failed).
  [[nodiscard]] std::optional<FetchResult> finish_attempt(
      Attempt attempt, obs::TraceBuilder* trace, std::uint32_t parent_span,
      Milliseconds start) const;

  /// Tier (iii)'s ground-CDN edge for one PoP and the two legs through it.
  struct GroundSite {
    std::size_t site = 0;
    Milliseconds pop_to_site{0.0};      ///< one-way, PoP -> edge site
    Milliseconds site_origin_rtt{0.0};  ///< edge site <-> origin
  };

  /// The ground site nearest PoP `pop`, computed on first use: sites, the
  /// origin and the backbone are fixed for the router's lifetime.
  [[nodiscard]] const GroundSite& ground_site(std::size_t pop);

  const lsn::StarlinkNetwork* network_;
  SatelliteFleet* fleet_;
  cdn::CdnDeployment* ground_cdn_;
  RouterConfig config_;
  ServingFilter serving_filter_;
  const PlacementMap* placement_map_ = nullptr;
  bool ground_only_ = false;
  /// Per-gateway bent-pipe breakers, lazily sized on first use; stays empty
  /// while breakers are disabled so the default path costs nothing.
  mutable std::vector<CircuitBreaker> gateway_breakers_;
  BreakerListener breaker_listener_;
  std::vector<std::optional<GroundSite>> ground_sites_;  ///< per PoP index
  /// Per-client sky geometry, valid for snapshot epoch geometry_epoch_ only
  /// (epochs are process-globally monotonic, so no ABA).  Ranked lists of
  /// all clients share one pool.  Not synchronised: like the breakers, it
  /// belongs to the one thread that drives this router (every fetch mutates
  /// the fleet's caches anyway).
  mutable std::uint64_t geometry_epoch_ = 0;
  mutable std::unordered_map<ClientKey, ClientGeometry, ClientKeyHash> geometry_;
  mutable std::vector<std::uint32_t> ranked_;
};

}  // namespace spacecdn::space
