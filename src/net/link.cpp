#include "net/link.hpp"

#include "util/error.hpp"

namespace spacecdn::net {

BufferbloatModel::BufferbloatModel(Milliseconds bloat_at_full_load, double sigma)
    : bloat_at_full_load_(bloat_at_full_load), sigma_(sigma) {
  SPACECDN_EXPECT(bloat_at_full_load.value() >= 0.0, "bloat must be non-negative");
  SPACECDN_EXPECT(sigma >= 0.0, "sigma must be non-negative");
}

Milliseconds BufferbloatModel::expected_bloat(double load) const {
  SPACECDN_EXPECT(load >= 0.0 && load <= 1.0, "load must be within [0, 1]");
  // Buffers fill superlinearly with load; quadratic is a good first-order
  // fit to published Starlink loaded-latency curves.
  return Milliseconds{bloat_at_full_load_.value() * load * load};
}

Milliseconds BufferbloatModel::sample_bloat(double load, des::Rng& rng) const {
  const Milliseconds mean = expected_bloat(load);
  if (mean.value() <= 0.0) return Milliseconds{0.0};
  return Milliseconds{rng.lognormal_median(mean.value(), sigma_)};
}

}  // namespace spacecdn::net
