// spacecdn_perf: one load-engine benchmark workload per process.
//
//   spacecdn_perf --workload=NAME --seed=N [--scale=F] [--trace]
//
// Builds the workload's world through the public APIs (sim::World,
// sim::synthesize_users, load::LoadRunner, faults::*), runs the open-loop
// event loop once on one thread, and prints one JSON line: the outcome
// ledger, the FNV-1a checksum over LoadReport::latency_ms, and the time of
// each stage at the host's nominal speed (see host_speed below).  Every
// layer is timed from outside, around the driver's calls into it; nothing
// inside src/ is instrumented for this.
//
// --scale shrinks the workload (its synthetic users when it has them, else
// its arrival horizon and chaos window) for smoke runs.
//
// --trace installs the existing obs::Profiler and MetricsRegistry for the
// run, reads the layers' public counters afterwards, and then replays up to
// 200k requests drawn from the workload's TrafficModel against bench-owned
// state: pass A times SpaceCdnRouter::fetch (fetch_resilient for chaos)
// per request, pass B times each child layer the fetch calls, once per
// request on the same inputs.  The replay never touches the measured run,
// so the traced checksum must equal the untraced one.
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/datasets.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "des/stats.hpp"
#include "faults/domains.hpp"
#include "load/load_runner.hpp"
#include "obs/telemetry.hpp"
#include "sim/scenario.hpp"
#include "sim/users.hpp"
#include "sim/world.hpp"
#include "spacecdn/placement.hpp"
#include "spacecdn/resilience.hpp"
#include "util/error.hpp"

namespace {

using namespace spacecdn;
using Clock = std::chrono::steady_clock;

/// One benchmark workload: scenario keys (bench flag spelling) plus the two
/// knobs the driver maps onto LoadConfig / the client set itself.
struct Workload {
  std::string_view name;
  std::map<std::string, std::string> keys;
  /// Synthetic terminals via sim::synthesize_users; 0 = one per covered city.
  std::size_t users = 0;
  std::uint32_t copies_per_plane = 4;
};

// Why each workload exists is recorded in perf/README.md; in short:
// paper-warm exercises router tiers (i)/(ii) over warm caches and bypasses
// the ground path; cold-ground puts most requests on the bent pipe and
// ground CDN with constant cache insert/evict over the 9,996-node graph;
// mega-users is dominated by set-up, memory and a deep DES heap;
// chaos-disaster is the only one on fetch_resilient, retries, the auto hedge
// delay, breakers, churn and routing-cache invalidation.  Each process takes
// about 1-5 s on a 4-core host, so one benchmark run measures many of them.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads{
      {"paper-warm",
       {{"constellation", "shell1"},
        {"arrival-rate", "10000"},
        {"load-horizon-s", "30"},
        {"link-capacity", "0.15"},
        {"object-size-dist", "web"}},
       0,
       4},
      {"cold-ground",
       {{"constellation", "gen2-10k"},
        {"coverage-lat", "90"},
        {"arrival-rate", "10000"},
        {"load-horizon-s", "5"},
        {"link-capacity", "1.0"},
        {"object-size-dist", "web"},
        {"fleet-capacity-mb", "500"}},
       0,
       0},
      {"mega-users",
       {{"constellation", "starlink-4shell"},
        {"arrival-rate", "20000"},
        {"load-horizon-s", "10"},
        {"link-capacity", "0.15"}},
       200'000,
       4},
      // bench/disaster_region.scenario's keys at half its horizon, plus
      // renewal satellite churn so ISL failures invalidate the routing cache
      // (gateway outages alone leave the ISL topology untouched).  The 60 ms
      // attempt timeout, half the scenario's, sits inside the first-byte RTT
      // spread, so about 2% of fetches retry.  The auto hedge delay is kept,
      // because re-deriving the completion p99 every 256 completions is part
      // of the scenario's cost; that p99 lies above every first-byte RTT, so
      // no hedge is ever sent.  The fault timeline comes from a fixed seed
      // (chaos_schedule), so --seed varies only the traffic.
      {"chaos-disaster",
       {{"chaos", "disaster-region"},
        {"satellite-mtbf-hours", "0.5"},
        {"satellite-mttr-minutes", "1"},
        {"chaos-start-s", "2.5"},
        {"chaos-duration-s", "5"},
        {"chaos-lat", "50.2"},
        {"chaos-lon", "8.6"},
        {"chaos-radius-km", "2000"},
        {"chaos-surge", "4"},
        {"resilient-fetch", "true"},
        {"request-deadline-ms", "400"},
        {"attempt-timeout-ms", "60"},
        {"hedge-delay-ms", "-1"},
        {"backoff-jitter", "0.1"},
        {"breaker-threshold", "5"},
        {"shed-to-ground", "true"},
        {"arrival-rate", "4000"},
        {"load-horizon-s", "10"},
        {"link-capacity", "0.1"}},
       0,
       4},
  };
  return kWorkloads;
}

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw ConfigError("unknown --workload '" + std::string(name) + "'");
}

std::string format_double(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// Scales a numeric scenario key in place (smoke runs).
void scale_key(std::map<std::string, std::string>& keys, const std::string& key,
               double factor) {
  keys[key] = format_double(std::stod(keys.at(key)) * factor);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host-speed correction.  On a shared 4-vCPU host the speed of one vCPU
// swings by about a third within a second: the same fixed slice of work,
// timed every 50 ms for a minute, had an IQR of 37% of its median, an
// autocorrelation of 0.84 at 50 ms but 0.43 at 1 s, and a correlation of
// 0.16 with the same slice on another vCPU.  Nothing run before, after or
// beside a stage tracks that, so the driver samples the speed inside the
// stage: every kPeriodUs of wall time a SIGALRM handler runs a fixed
// reference slice on the driver's own thread and adds up how long it took.
// A stage's time less the slices within it, divided by its mean slice over
// kNominalSliceNs, is the time the stage would have taken at nominal speed.
namespace host_speed {

constexpr long kPeriodUs = 10'000;
/// The mean slice over a whole process in the calmest periods measured on
/// the benchmark host (perf/README.md).  It sets only the scale: corrected
/// times are what the host gives when it is calm.
constexpr double kNominalSliceNs = 200'000.0;

constexpr std::uint32_t kSortedBits = 15;  // 128 KiB
constexpr std::uint32_t kTableBits = 18;   // 1 MiB

/// A slice that took longer than this was mostly preempted, not slowed; it
/// counts as this long towards the host's speed.  One preempted slice among
/// the two or three of a short stage would otherwise scale that stage by
/// a large factor.
constexpr std::uint64_t kMaxSliceNs = static_cast<std::uint64_t>(4 * kNominalSliceNs);

/// Time spent in slices; and the same with each slice capped at
/// kMaxSliceNs, which measures the host's speed.
std::atomic<std::uint64_t> g_slice_ns{0};
std::atomic<std::uint64_t> g_speed_ns{0};
std::atomic<std::uint64_t> g_slices{0};
std::uint32_t g_sorted[1u << kSortedBits];
std::uint32_t g_table[1u << kTableBits];
std::uint64_t g_state = 0x9e3779b97f4a7c15ULL;
std::uint64_t g_sink = 0;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        Clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// The reference work, about a third of its time in each of three kernels,
/// because code of different kinds slows by different amounts: branchy
/// binary searches (dependent loads and mispredictions), eight independent
/// ALU streams, and independent probes into a 1 MiB table.  Against each
/// kernel alone, the log of a workload's wall time rose with a slope from 0.5
/// to 1.5; against the mix, from 0.8 to 1.15.  Async-signal-safe: it touches
/// only this namespace's statics.
void slice() {
  const std::uint64_t start = now_ns();
  std::uint64_t x = g_state;
  std::uint64_t acc = g_sink;
  for (int i = 0; i < 650; ++i) {
    const std::uint32_t key = static_cast<std::uint32_t>(xorshift(x));
    std::uint32_t lo = 0;
    std::uint32_t hi = 1u << kSortedBits;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (g_sorted[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    acc += lo;
  }
  std::uint64_t streams[8];
  for (std::uint64_t& s : streams) s = xorshift(x);
  for (int i = 0; i < 10'700; ++i) {
    for (int j = 0; j < 8; ++j) streams[j] = xorshift(streams[j]) + (streams[(j + 1) % 8] >> 3);
  }
  for (const std::uint64_t s : streams) acc += s;
  for (std::uint64_t i = 0; i < 8'000; ++i) {
    const std::uint64_t h = (i + x) * 0x9e3779b97f4a7c15ULL;
    std::uint32_t& slot = g_table[h >> (64 - kTableBits)];
    acc += slot;
    slot += static_cast<std::uint32_t>(h);
  }
  g_state = x;
  g_sink = acc;
  const std::uint64_t took = now_ns() - start;
  g_slice_ns.fetch_add(took, std::memory_order_relaxed);
  g_speed_ns.fetch_add(std::min(took, kMaxSliceNs), std::memory_order_relaxed);
  g_slices.fetch_add(1, std::memory_order_relaxed);
}

void on_alarm(int) {
  const int saved = errno;
  slice();
  errno = saved;
}

void set_timer(long period_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = period_us;
  timer.it_value.tv_usec = period_us;
  setitimer(ITIMER_REAL, &timer, nullptr);
}

void start() {
  for (std::uint32_t i = 0; i < (1u << kSortedBits); ++i) g_sorted[i] = i * 131'071u;
  struct sigaction action {};
  action.sa_handler = on_alarm;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  set_timer(kPeriodUs);
}

void stop() { set_timer(0); }

/// A stage boundary.  It runs one slice first, with SIGALRM held so the
/// handler's slice cannot run inside it, and so every stage between two
/// marks holds at least one.
struct Mark {
  Clock::time_point at;
  std::uint64_t slice_ns;
  std::uint64_t speed_ns;
  std::uint64_t slices;
};

Mark mark() {
  sigset_t alarm;
  sigemptyset(&alarm);
  sigaddset(&alarm, SIGALRM);
  sigprocmask(SIG_BLOCK, &alarm, nullptr);
  slice();
  sigprocmask(SIG_UNBLOCK, &alarm, nullptr);
  return {Clock::now(), g_slice_ns.load(), g_speed_ns.load(), g_slices.load()};
}

/// Mean capped slice over kNominalSliceNs from `a` to `b`: how much slower
/// than nominal the host ran.
double slowdown(const Mark& a, const Mark& b) {
  return static_cast<double>(b.speed_ns - a.speed_ns) /
         static_cast<double>(b.slices - a.slices) / kNominalSliceNs;
}

/// The stage from `a` to `b`, less its slices, at nominal speed, in seconds.
double nominal_s(const Mark& a, const Mark& b) {
  const double work_s =
      seconds_between(a.at, b.at) - static_cast<double>(b.slice_ns - a.slice_ns) * 1e-9;
  return work_s / slowdown(a, b);
}

}  // namespace host_speed

/// One JSON object rendered on a single line; numbers keep every digit.
class JsonObject {
 public:
  void add(std::string_view key, double value) {
    field(key) += std::isfinite(value) ? format_double(value) : "null";
  }
  void add(std::string_view key, std::uint64_t value) {
    field(key) += std::to_string(value);
  }
  void add(std::string_view key, std::string_view value) {
    field(key) += "\"" + std::string(value) + "\"";
  }
  void add(std::string_view key, bool value) { field(key) += value ? "true" : "false"; }
  void add(std::string_view key, const JsonObject& value) { field(key) += value.str(); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string& field(std::string_view key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + std::string(key) + "\":";
    return body_;
  }
  std::string body_;
};

/// Per-call wall times of one layer operation, in nanoseconds.
class CallTimes {
 public:
  template <typename F>
  decltype(auto) time(F&& call) {
    const Clock::time_point start = Clock::now();
    decltype(auto) result = call();
    last_ = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    ns_.add(last_);
    total_ += last_;
    return result;
  }

  [[nodiscard]] const des::SampleSet& ns() const noexcept { return ns_; }
  [[nodiscard]] double last() const noexcept { return last_; }
  [[nodiscard]] double total_s() const noexcept { return total_ * 1e-9; }

  void report(JsonObject& out, std::string_view name) const {
    out.add(std::string(name) + "_p50", ns_.quantile(0.50));
    out.add(std::string(name) + "_p99", ns_.quantile(0.99));
  }

 private:
  des::SampleSet ns_;
  double total_ = 0.0;
  double last_ = 0.0;
};

/// The disaster-region fault timeline composed with the spec's renewal
/// satellite churn, built as bench/ablation_chaos does but from a fixed seed.
/// The number of churn events, and with it the routing-cache invalidations
/// (each re-running ~100 Dijkstra SSSPs), would otherwise vary from 1 to 13
/// between seeds and swing the event loop by about 0.35 s.
faults::FaultSchedule chaos_schedule(sim::World& world) {
  constexpr std::uint64_t kFaultSeed = 1;
  const sim::ScenarioSpec& spec = world.spec();
  des::Rng rng(kFaultSeed);
  const faults::FaultDomain domain = faults::gateway_region_domain(
      "disaster", data::ground_stations(), {spec.chaos_lat, spec.chaos_lon, 0.0},
      Kilometers{spec.chaos_radius_km});
  const faults::FaultSchedule correlated = faults::correlated_trace(
      domain,
      {{Milliseconds::from_seconds(spec.chaos_start_s),
        Milliseconds::from_seconds(spec.chaos_duration_s), 1.0}},
      rng);
  faults::ChurnConfig churn = world.churn_config();
  churn.horizon = Milliseconds::from_seconds(spec.load_horizon_s);
  const faults::FaultSchedule renewal = faults::FaultSchedule::generate(
      churn,
      {.satellites = world.constellation().size(),
       .ground_stations = static_cast<std::uint32_t>(data::ground_stations().size())},
      rng);
  return faults::merge_schedules({&correlated, &renewal});
}

struct ReplayRequest {
  geo::GeoPoint client;
  const data::CountryInfo* country = nullptr;
  const cdn::ContentItem* item = nullptr;
  Milliseconds at{0.0};
};

/// Draws requests the way the TrafficModel offers them: client weighted by
/// its mean rate, object from the client's regional popularity curve.
std::vector<ReplayRequest> draw_requests(const load::TrafficModel& traffic,
                                         std::size_t count, Milliseconds horizon,
                                         des::Rng& rng) {
  const auto& clients = traffic.clients();
  std::vector<double> cumulative(clients.size());
  double total = 0.0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    total += traffic.city_rate_rps(i);
    cumulative[i] = total;
  }
  std::vector<ReplayRequest> requests;
  requests.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double u = rng.uniform(0.0, total);
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t i =
        std::min(clients.size() - 1, static_cast<std::size_t>(it - cumulative.begin()));
    const data::CountryInfo& country = data::country(clients[i].city->country_code);
    requests.push_back({sim::client_location(clients[i]), &country,
                        &traffic.sample_object(country, rng),
                        horizon * (static_cast<double>(k) / static_cast<double>(count))});
  }
  return requests;
}

/// Which children a fetch ran, by the tier it ended on: -1 no serving
/// satellite; 0/1/2 tiers (i)/(ii)/(iii).  A failed resilient fetch walked
/// every tier, so it counts as 2.
int fetch_path(const std::optional<space::FetchResult>& result) {
  return result ? static_cast<int>(result->tier) : -1;
}
int fetch_path(const space::ResilientFetchResult& result) {
  return result.success ? static_cast<int>(result.served->tier) : 2;
}

/// The traced run's layer replay (passes A and B) plus the DES, queue and
/// cold-SSSP micro-replays.  Adds the replay metrics to `layers`.
void layer_replay(const sim::World& world, lsn::StarlinkNetwork& run_network,
                  const load::LoadRunner& runner, const load::LoadReport& report,
                  std::size_t pending_at_start, JsonObject& layers) {
  constexpr std::size_t kReplayRequests = 200'000;
  const sim::ScenarioSpec& spec = world.spec();
  const load::LoadConfig& config = runner.config();
  const load::TrafficModel& traffic = runner.traffic();
  des::Rng rng(des::mix_seed(spec.seed, 0x7265706c6179ULL));
  const std::size_t count =
      std::min<std::size_t>(kReplayRequests, std::max<std::uint64_t>(report.offered, 1));
  const std::vector<ReplayRequest> requests =
      draw_requests(traffic, count, config.horizon, rng);

  // Bench-owned fleet and ground CDN, prewarmed exactly as
  // LoadRunner::prepare does.
  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  if (config.copies_per_plane > 0) {
    const space::ContentPlacement placement(
        run_network.constellation(),
        {config.copies_per_plane, config.placement_plane_stride});
    for (const cdn::ContentItem& item : traffic.catalog().items()) {
      placement.place(fleet, item, Milliseconds{0.0});
    }
  }
  // Other workloads replay on the run's network, whose routing cache the run
  // warmed.  Chaos replays on a fresh network in the incident's midpoint
  // state: the run's network ends wherever the churn left it.
  std::unique_ptr<lsn::StarlinkNetwork> incident;
  if (!config.fault_schedule.empty()) {
    incident = world.make_network(lsn::starlink_preset(spec.constellation));
    space::ChurnController churn(*incident, fleet);
    const Milliseconds mid =
        Milliseconds::from_seconds(spec.chaos_start_s + spec.chaos_duration_s / 2.0);
    for (const faults::FaultEvent& event : config.fault_schedule.events()) {
      if (event.at <= mid) churn.apply(event);
    }
  }
  lsn::StarlinkNetwork& network = incident ? *incident : run_network;
  space::RouterConfig router_config;
  router_config.max_isl_hops = config.max_isl_hops;
  router_config.record_paths = true;
  router_config.resilience = config.resilience;
  space::SpaceCdnRouter router(network, fleet, ground, router_config);
  if (config.hedge_auto && !report.latency_ms.empty()) {
    router.set_hedge_delay(Milliseconds{report.latency_ms.quantile(0.99)});
  }

  // Pass A: the whole fetch.
  CallTimes fetch;
  std::vector<int> paths;
  paths.reserve(requests.size());
  des::Rng fetch_rng(des::mix_seed(spec.seed, 0x7061737341ULL));
  for (const ReplayRequest& r : requests) {
    if (config.resilient_fetch) {
      paths.push_back(fetch_path(fetch.time([&] {
        return router.fetch_resilient(r.client, *r.country, *r.item, fetch_rng, r.at);
      })));
    } else {
      paths.push_back(fetch_path(fetch.time([&] {
        return router.fetch(r.client, *r.country, *r.item, fetch_rng, r.at);
      })));
    }
  }

  // Pass B: each child layer once per request.  A request's children count
  // towards its layer's busy time (and spacecdn.children_busy_s) only where
  // its pass-A fetch ran them.
  CallTimes serving_t, visible_t, access_t, sssp_t, within_t, bent_t, serve_t;
  const orbit::EphemerisSnapshot& snapshot = network.snapshot();
  const lsn::IslNetwork& isl = network.isl();
  const double min_elevation = network.config().user_min_elevation_deg;
  double orbit_ns = 0.0;
  double lsn_ns = 0.0;
  double cdn_ns = 0.0;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const ReplayRequest& r = requests[k];
    const auto serving = serving_t.time(
        [&] { return snapshot.serving_satellite(r.client, min_elevation); });
    visible_t.time([&] { return snapshot.visible_satellites(r.client, min_elevation); });
    orbit_ns += config.resilient_fetch ? visible_t.last() : serving_t.last();
    if (serving) {
      const std::uint32_t sat = *serving;
      access_t.time([&] { return fleet.cache(sat).access(r.item->id, r.at); });
      sssp_t.time([&] { return isl.sssp_from(sat); });
      within_t.time([&] { return isl.within_hops(sat, config.max_isl_hops); });
      const auto route = bent_t.time([&] {
        return network.router().route_from_satellite(sat, r.client, *r.country);
      });
      const std::size_t site =
          route ? ground.nearest_site(data::location(network.ground().pop(route->pop)))
                : ground.nearest_site(r.client);
      const Milliseconds client_site_rtt =
          route ? route->propagation_rtt() : Milliseconds{0.0};
      const Milliseconds site_origin_rtt = network.ground().backbone().rtt(
          ground.site_location(site), ground.origin_location());
      serve_t.time([&] {
        return ground.serve(site, *r.item, client_site_rtt, site_origin_rtt, r.at);
      });
      if (paths[k] >= 0) cdn_ns += access_t.last();
      if (paths[k] >= 1) lsn_ns += within_t.last() + sssp_t.last();
      if (paths[k] >= 2) {
        lsn_ns += bent_t.last();
        cdn_ns += serve_t.last();
      }
    }
  }
  const double children_s = (orbit_ns + lsn_ns + cdn_ns) * 1e-9;

  // DES dispatch at the workload's heap depth: schedule_at + step of a
  // no-op event, the heap holding `pending_at_start` entries throughout.
  CallTimes dispatch;
  {
    des::Simulator sim;
    des::Rng heap_rng(des::mix_seed(spec.seed, 0x68656170ULL));
    const double horizon_ms = config.horizon.value();
    for (std::size_t i = 0; i < pending_at_start; ++i) {
      sim.schedule_at(Milliseconds{heap_rng.uniform(0.0, horizon_ms)}, [] {});
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      dispatch.time([&] {
        const Milliseconds delay{heap_rng.uniform(0.0, horizon_ms)};
        sim.schedule_at(sim.now() + delay, [] {});
        return sim.step();
      });
    }
  }

  // LinkQueue::submit at the workload's volumes and downlink capacity, the
  // queue held at the run's peak depth.
  CallTimes submit;
  {
    des::Simulator sim;
    load::LinkQueue queue(sim, config.capacity.satellite_downlink,
                          config.capacity.discipline, config.capacity.drr_quantum);
    const std::size_t depth = std::max<std::size_t>(1, report.peak_queue_depth);
    std::uint64_t flow = 0;
    for (const ReplayRequest& r : requests) {
      submit.time([&] {
        queue.submit(r.item->size, flow++ % 64, [](Milliseconds) {});
        return 0;
      });
      while (queue.depth() > depth && sim.step()) {
      }
    }
  }

  // First SSSP from a source on a fresh IslNetwork (a routing-cache miss).
  CallTimes sssp_miss;
  {
    const lsn::IslNetwork fresh(network.constellation(), snapshot, network.config().isl);
    constexpr std::uint32_t kSources = 64;
    for (std::uint32_t s = 0; s < kSources; ++s) {
      const std::uint32_t sat = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(s) * snapshot.size() / kSources);
      sssp_miss.time([&] { return fresh.sssp_from(sat); });
    }
  }

  dispatch.report(layers, "des.dispatch_ns");
  submit.report(layers, "load.queue_submit_ns");
  serving_t.report(layers, "orbit.serving_ns");
  visible_t.report(layers, "orbit.visible_ns");
  sssp_t.report(layers, "lsn.sssp_ns");
  layers.add("lsn.sssp_miss_ns_p50", sssp_miss.ns().median());
  within_t.report(layers, "lsn.within_hops_ns");
  bent_t.report(layers, "lsn.bent_pipe_ns");
  access_t.report(layers, "cdn.access_ns");
  serve_t.report(layers, "cdn.ground_serve_ns");
  fetch.report(layers, "spacecdn.fetch_ns");
  layers.add("spacecdn.fetch_busy_s", fetch.total_s());
  layers.add("spacecdn.children_busy_s", children_s);
  layers.add("orbit.busy_s", orbit_ns * 1e-9);
  layers.add("lsn.busy_s", lsn_ns * 1e-9);
  layers.add("cdn.busy_s", cdn_ns * 1e-9);
  layers.add("spacecdn.unattributed_share", 1.0 - ratio(children_s, fetch.total_s()));
  layers.add("replay.requests", static_cast<std::uint64_t>(requests.size()));
}

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double scale = 1.0;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? "" : arg.substr(eq + 1));
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--scale") {
      options.scale = std::stod(value);
    } else if (key == "--trace" && eq == std::string_view::npos) {
      options.trace = true;
    } else {
      throw ConfigError("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (options.workload.empty() || !options.seed) {
    throw ConfigError(
        "usage: spacecdn_perf --workload=NAME --seed=N [--scale=F] [--trace]");
  }
  if (!(options.scale > 0.0 && options.scale <= 1.0)) {
    throw ConfigError("--scale must be in (0, 1]");
  }
  return options;
}

int run(const Options& options, const host_speed::Mark& process_start) {
  const Workload& workload = find_workload(options.workload);
  std::map<std::string, std::string> keys = workload.keys;
  std::size_t users = workload.users;
  if (users > 0) {
    users = std::max<std::size_t>(1, static_cast<std::size_t>(
                                         static_cast<double>(users) * options.scale));
  } else if (options.scale != 1.0) {
    scale_key(keys, "load-horizon-s", options.scale);
    if (keys.count("chaos") != 0) {
      scale_key(keys, "chaos-start-s", options.scale);
      scale_key(keys, "chaos-duration-s", options.scale);
    }
  }
  sim::ScenarioSpec spec;
  sim::ScenarioValues(keys, {{"seed", std::to_string(*options.seed)}}).apply(spec);

  obs::MetricsRegistry registry;
  obs::Profiler profiler;
  std::optional<obs::TelemetryScope> telemetry;
  if (options.trace) {
    telemetry.emplace(obs::TelemetrySinks{&registry, nullptr, nullptr, &profiler});
  }

  sim::World world(spec);
  Clock::time_point t = Clock::now();
  lsn::StarlinkNetwork& network = world.network();
  space::SatelliteFleet fleet = world.make_fleet();
  cdn::CdnDeployment ground = world.make_ground_cdn();
  const double world_s = seconds_between(t, Clock::now());

  t = Clock::now();
  std::vector<sim::Shell1Client> clients =
      users > 0 ? sim::synthesize_users(world.clients(), users, spec.seed)
                : world.clients();
  const double users_s = seconds_between(t, Clock::now());

  load::LoadConfig config = load::load_config_from_spec(spec);
  config.copies_per_plane = workload.copies_per_plane;
  if (!spec.chaos.empty()) config.fault_schedule = chaos_schedule(world);

  t = Clock::now();
  load::LoadRunner runner(network, fleet, ground, std::move(clients), std::move(config));
  const double construct_s = seconds_between(t, Clock::now());
  t = Clock::now();
  runner.prepare();
  const host_speed::Mark first_event = host_speed::mark();
  const double prepare_s = seconds_between(t, first_event.at);
  const std::size_t pending_at_start = runner.engine().pending_events();

  runner.engine().run();
  const host_speed::Mark drained = host_speed::mark();
  const load::LoadReport report = runner.collect();
  const host_speed::Mark done = host_speed::mark();
  host_speed::stop();
  const double run_s = seconds_between(first_event.at, drained.at);
  const double nominal_run_s = host_speed::nominal_s(first_event, drained);
  telemetry.reset();

  des::Fnv1aChecksum checksum;
  for (const double v : report.latency_ms.raw()) checksum.add(v);
  const std::uint64_t outcomes =
      report.completed + report.rejected + report.no_coverage + report.failed;
  const bool ledger_ok = outcomes == report.offered;

  JsonObject out;
  out.add("workload", workload.name);
  out.add("seed", *options.seed);
  out.add("scale", options.scale);
  out.add("checksum", checksum.hex());
  out.add("ledger_ok", ledger_ok);
  out.add("offered", report.offered);
  out.add("completed", report.completed);
  out.add("rejected", report.rejected);
  out.add("no_coverage", report.no_coverage);
  out.add("failed", report.failed);
  // The end-to-end times are at nominal host speed; raw_wall_s is as the
  // clock read it, slices included.
  out.add("setup_s", host_speed::nominal_s(process_start, first_event));
  out.add("wall_s", host_speed::nominal_s(process_start, done));
  out.add("requests_per_s", ratio(report.offered, nominal_run_s));
  out.add("raw_wall_s", seconds_between(process_start.at, done.at));
  out.add("slowdown", host_speed::slowdown(process_start, done));

  if (options.trace) {
    JsonObject layers;
    layers.add("host.slowdown", host_speed::slowdown(process_start, done));
    layers.add("sim.world_s", world_s);
    layers.add("sim.users_s", users_s);
    layers.add("load.construct_s", construct_s);
    layers.add("load.prepare_s", prepare_s);
    layers.add("load.collect_s", seconds_between(drained.at, done.at));
    layers.add("des.run_s", run_s);
    layers.add("des.events", runner.engine().processed_events());
    layers.add("des.pending_at_start", static_cast<std::uint64_t>(pending_at_start));
    layers.add("des.ns_per_event",
               ratio(run_s * 1e9, runner.engine().processed_events()));
    layers.add("load.offered", report.offered);
    layers.add("load.completed", report.completed);
    layers.add("load.rejected", report.rejected);
    layers.add("load.peak_queue_depth",
               static_cast<std::uint64_t>(report.peak_queue_depth));
    layers.add("load.peak_active_transfers",
               static_cast<std::uint64_t>(report.peak_active_transfers));
    layers.add("load.shed_to_ground", report.shed_to_ground);

    const net::RoutingCacheStats routes = network.isl().routing_cache_stats();
    layers.add("net.route_cache_hit_ratio", routes.hit_rate());
    layers.add("net.route_cache_misses", routes.misses);
    layers.add("net.route_cache_invalidations", routes.invalidations);

    const cdn::CacheStats sat = fleet.aggregate_stats();
    layers.add("cdn.sat_hit_ratio", sat.hit_rate());
    layers.add("cdn.sat_insertions", sat.insertions);
    layers.add("cdn.sat_evictions", sat.evictions);
    std::uint64_t ground_hits = 0;
    std::uint64_t ground_lookups = 0;
    for (std::size_t i = 0; i < ground.site_count(); ++i) {
      ground_hits += ground.cache(i).stats().hits;
      ground_lookups += ground.cache(i).stats().hits + ground.cache(i).stats().misses;
    }
    layers.add("cdn.ground_hit_ratio", ratio(ground_hits, ground_lookups));

    layers.add("spacecdn.tier_i_share", ratio(report.tier[0], report.completed));
    layers.add("spacecdn.tier_ii_share", ratio(report.tier[1], report.completed));
    layers.add("spacecdn.tier_iii_share", ratio(report.tier[2], report.completed));
    layers.add("spacecdn.retries", report.retries);
    layers.add("spacecdn.breaker_short_circuits", report.breaker_short_circuits);
    const space::ChurnController::Counters churn = runner.churn_counters();
    layers.add("faults.events",
               churn.satellite_failures + churn.satellite_recoveries + churn.isl_flaps +
                   churn.isl_flap_recoveries + churn.gateway_failures +
                   churn.gateway_recoveries + churn.cache_crashes + churn.cache_restores);

    const auto section_s = [&](const char* name) {
      const des::OnlineSummary& s = profiler.section(name);
      return s.mean() * static_cast<double>(s.count()) * 1e-9;
    };
    layers.add("obs.router_share_of_run",
               ratio(section_s("SpaceCdnRouter::fetch") +
                         section_s("SpaceCdnRouter::fetch_resilient"),
                     run_s));

    layer_replay(world, network, runner, report, pending_at_start, layers);
    out.add("layers", layers);
  }
  std::cout << out.str() << std::endl;
  return ledger_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  host_speed::start();
  const host_speed::Mark process_start = host_speed::mark();
  try {
    return run(parse_options(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::cerr << "spacecdn_perf: " << e.what() << "\n";
    return 2;
  }
}
