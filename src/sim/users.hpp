// Synthetic mega-user fleets.
//
// The paper's client set is one terminal per covered city (~a few thousand).
// The measurement studies we scale towards count millions of subscriber
// terminals, so synthesize_users expands the city set into N terminals:
// users are spread uniformly across the covered cities (keeping each city's
// aggregate traffic share proportional to population -- the TrafficModel
// already weights per-client rate by the anchor city's population, so a
// population-proportional allocation here would square the skew), and each
// terminal is scattered deterministically around its city centroid.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scenario.hpp"
#include "util/units.hpp"

namespace spacecdn::sim {

/// Expands `cities` into `count` terminals: city i receives floor(count/C)
/// users plus one of the count%C remainder slots (dataset order), each
/// scattered inside a disc of `scatter_radius` around the city centroid via
/// a per-user RNG stream of `seed`.  dataset_index values continue past the
/// full city table (data::cities().size() + ordinal), so the per-user
/// arrival/size RNG streams of the load engine never collide with the
/// classic per-city ones.
///
/// Known defect: user k is scattered from `Rng(mix_seed(seed, dataset_index))`,
/// the very stream `load::LoadRunner` draws that user's arrivals from when
/// its `config.seed` equals `seed` (as in perf/ and mega_user_load).  The
/// scatter radius R·√u and the first gap −ln(1−u)/λ then share one `u`, so
/// the users who arrive inside the horizon are exactly each city's inner
/// disc.  Left as is until a change that re-pins the mega checksums.
/// @throws spacecdn::ConfigError when `cities` is empty and count > 0.
[[nodiscard]] std::vector<Shell1Client> synthesize_users(
    const std::vector<Shell1Client>& cities, std::size_t count, std::uint64_t seed,
    Kilometers scatter_radius = Kilometers{25.0});

}  // namespace spacecdn::sim
