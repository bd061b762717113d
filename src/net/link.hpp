// Link-level delay models: serialization, cut-through load, and bufferbloat.
//
// The paper's web results hinge on link behaviour beyond propagation delay:
// Starlink's well-documented bufferbloat, where deep buffers add >200 ms
// under active downloads (paper section 3.2, citing Mohan et al. WWW'24).
// Queueing at contended hops is simulated explicitly by load::LinkQueue.
#pragma once

#include "des/random.hpp"
#include "util/units.hpp"

namespace spacecdn::net {

/// Static description of a link.
struct LinkSpec {
  Milliseconds propagation{0.0};
  Mbps capacity{100.0};
};

/// Serialization (transmission) delay of pushing `volume` onto the link.
[[nodiscard]] constexpr Milliseconds serialization_delay(const LinkSpec& link,
                                                         Megabytes volume) noexcept {
  return transmission_delay(volume, link.capacity);
}

/// Cheap cumulative-load annotation for one directed link: tracks the time
/// the transmitter is committed through and the bytes it has carried.  The
/// load engine uses it for the cut-through links of a multi-hop path (the
/// backlog a new transfer finds, and per-link utilization), while explicit
/// des-driven queues model the bottleneck hop.
struct LinkLoad {
  Milliseconds busy_until{0.0};
  Megabytes carried{0.0};

  /// Charges a transfer arriving at `now`: returns the backlog wait it finds
  /// and commits the transmitter for `serialization` beyond it.
  Milliseconds charge(Milliseconds now, Milliseconds serialization,
                      Megabytes volume) noexcept {
    const Milliseconds wait =
        busy_until > now ? busy_until - now : Milliseconds{0.0};
    busy_until = now + wait + serialization;
    carried += volume;
    return wait;
  }

  /// Mean utilization of the link over [0, horizon] given its capacity.
  [[nodiscard]] double utilization(Milliseconds horizon, Mbps capacity) const noexcept {
    if (horizon.value() <= 0.0 || capacity.value() <= 0.0) return 0.0;
    return transmission_delay(carried, capacity) / horizon;
  }
};

/// Bufferbloat: latency inflation under sustained load.
///
/// Idle connections see no inflation; during an active bulk transfer the
/// bottleneck buffer fills and RTTs inflate towards `bloat_at_full_load`.
/// Parameterised from the Starlink measurements the paper corroborates
/// (>200 ms during active downloads).
class BufferbloatModel {
 public:
  explicit BufferbloatModel(Milliseconds bloat_at_full_load, double sigma = 0.35);

  /// Extra delay when the access link carries `load` in [0, 1] of its
  /// capacity; deterministic expectation.
  [[nodiscard]] Milliseconds expected_bloat(double load) const;

  /// Stochastic sample (lognormal around the expectation).
  [[nodiscard]] Milliseconds sample_bloat(double load, des::Rng& rng) const;

 private:
  Milliseconds bloat_at_full_load_;
  double sigma_;
};

}  // namespace spacecdn::net
