#include "measurement/pageload.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "net/dns.hpp"
#include "net/tcp_model.hpp"
#include "util/error.hpp"

namespace spacecdn::measurement {

PageLoadSimulator::PageLoadSimulator(PageLoadConfig config) : config_(config) {
  SPACECDN_EXPECT(config.parallel_connections > 0,
                  "browser needs at least one connection");
}

PageLoadResult PageLoadSimulator::load(const PageProfile& page, const PathModel& path,
                                       des::Rng& rng) const {
  SPACECDN_EXPECT(static_cast<bool>(path.sample_rtt), "path needs an RTT sampler");

  des::Simulator sim;
  net::SharedLink link(sim, path.bandwidth);
  const net::TcpModel tcp(config_.tcp);

  // Shared mutable state across event callbacks.
  struct State {
    std::uint32_t queued = 0;       ///< discovered but not yet requested
    std::uint32_t in_flight = 0;    ///< request sent or body transferring
    std::uint32_t done = 0;
    std::uint32_t total = 0;
    double last_body_done_ms = 0.0;
  };
  const auto state = std::make_shared<State>();
  state->total = page.critical_objects;

  const Megabytes object_size{page.critical_total.value() /
                              std::max(1u, page.critical_objects)};

  // Issues queued objects while connections are free.  Each issue costs one
  // request round trip before its body occupies the shared link.  The pump
  // lives behind a shared_ptr so completion callbacks can re-invoke it
  // recursively without dangling.
  const auto pump = std::make_shared<std::function<void()>>();
  *pump = [&, state, pump]() {
    while (state->queued > 0 && state->in_flight < config_.parallel_connections) {
      --state->queued;
      ++state->in_flight;
      const Milliseconds request_rtt = path.sample_rtt(rng);
      sim.schedule(request_rtt, [&, state, pump] {
        (void)link.start_flow(object_size, [&, state, pump](const net::FlowRecord& r) {
          --state->in_flight;
          ++state->done;
          state->last_body_done_ms =
              std::max(state->last_body_done_ms, r.finished.value());
          (*pump)();  // a connection freed up: pull the next queued object
        });
      });
    }
  };

  // Connection setup: DNS, TCP handshake, TLS.
  net::DnsConfig dns_cfg;
  dns_cfg.resolver_rtt = path.sample_rtt(rng);
  dns_cfg.authoritative_rtt = dns_cfg.resolver_rtt + Milliseconds{20.0};
  const Milliseconds dns = net::DnsModel(dns_cfg).sample_lookup_time(rng);
  const Milliseconds setup = dns + tcp.connect_time(path.sample_rtt(rng)) +
                             tcp.tls_time(path.sample_rtt(rng));

  double html_done_ms = 0.0;
  // HTML: request round trip + server think, then the body over the link.
  sim.schedule(setup + tcp.http_response_time(path.sample_rtt(rng), page.server_think),
               [&, state] {
                 (void)link.start_flow(page.html, [&, state](const net::FlowRecord& r) {
                   html_done_ms = r.finished.value();
                   // Discovery: the critical set arrives in request_rounds
                   // waves, each one RTT after the previous.
                   const std::uint32_t rounds = std::max(1u, page.request_rounds);
                   const std::uint32_t per_wave =
                       (page.critical_objects + rounds - 1) / rounds;
                   std::uint32_t assigned = 0;
                   for (std::uint32_t w = 0; w < rounds && assigned < page.critical_objects;
                        ++w) {
                     const std::uint32_t wave =
                         std::min(per_wave, page.critical_objects - assigned);
                     assigned += wave;
                     const Milliseconds discovery_delay =
                         path.sample_rtt(rng) * static_cast<double>(w);
                     sim.schedule(discovery_delay, [&, state, pump, wave] {
                       state->queued += wave;
                       (*pump)();
                     });
                   }
                 });
               });

  sim.run();
  *pump = nullptr;  // the pump captures its own shared_ptr; break the cycle

  PageLoadResult result;
  result.objects_fetched = state->done;
  const double body_done = std::max(state->last_body_done_ms, html_done_ms);
  result.page_load_time = Milliseconds{body_done};
  const Milliseconds render{rng.lognormal_median(page.render_delay.value(), 0.3)};
  result.first_contentful_paint = result.page_load_time + render;
  return result;
}

}  // namespace spacecdn::measurement
