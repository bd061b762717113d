#include "lsn/isl_network.hpp"

#include <algorithm>
#include <set>

#include "geo/propagation.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace spacecdn::lsn {

IslNetwork::IslNetwork(const orbit::WalkerConstellation& constellation,
                       const orbit::EphemerisSnapshot& snapshot, IslConfig config,
                       std::span<const std::uint32_t> failed_satellites)
    : snapshot_(&snapshot),
      config_(config),
      graph_(snapshot.size()),
      routes_(snapshot.size()),
      failed_(snapshot.size(), false) {
  SPACECDN_PROFILE("IslNetwork::build");
  SPACECDN_EXPECT(constellation.size() == snapshot.size(),
                  "snapshot must match the constellation");
  for (const std::uint32_t sat : failed_satellites) {
    SPACECDN_EXPECT(sat < failed_.size(), "failed satellite id out of range");
    if (!failed_[sat]) {
      failed_[sat] = true;
      ++failed_count_;
    }
  }
  // Phase-nearest neighbour selection is not perfectly symmetric, so collect
  // normalised pairs first and add each undirected link exactly once.  The
  // pair set ignores failures: it defines the physical terminal wiring that
  // fail()/recover() toggle at runtime.
  std::set<std::pair<std::uint32_t, std::uint32_t>> links;
  for (std::uint32_t sat = 0; sat < constellation.size(); ++sat) {
    for (std::uint32_t neighbor : constellation.grid_neighbors(sat)) {
      links.emplace(std::min(sat, neighbor), std::max(sat, neighbor));
    }
  }
  partners_.resize(snapshot.size());
  for (const auto& [a, b] : links) {
    partners_[a].push_back(b);
    partners_[b].push_back(a);
  }
  rebuild_edges();
}

void IslNetwork::rebuild_edges() {
  graph_.clear_edges();
  for (std::uint32_t a = 0; a < partners_.size(); ++a) {
    if (failed_[a]) continue;
    for (const std::uint32_t b : partners_[a]) {
      if (b < a || failed_[b]) continue;  // each undirected pair once
      const Kilometers d = snapshot_->isl_distance(a, b);
      const Milliseconds latency =
          geo::propagation_delay(d, geo::Medium::kVacuum) + config_.per_hop_overhead;
      graph_.add_undirected_edge(a, b, latency);
    }
  }
}

void IslNetwork::advance(const orbit::EphemerisSnapshot& snapshot) {
  SPACECDN_PROFILE("IslNetwork::advance");
  SPACECDN_EXPECT(snapshot.size() == failed_.size(),
                  "snapshot must match the constellation");
  snapshot_ = &snapshot;
  rebuild_edges();
  topology_changed();
}

void IslNetwork::topology_changed() {
  ++topology_epoch_;
  std::fill(routes_.begin(), routes_.end(), RouteSlot{});
}

bool IslNetwork::is_failed(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < failed_.size(), "satellite id out of range");
  return failed_[sat];
}

void IslNetwork::fail(std::uint32_t sat) {
  SPACECDN_EXPECT(sat < failed_.size(), "satellite id out of range");
  if (failed_[sat]) return;
  failed_[sat] = true;
  ++failed_count_;
  // Links towards already-failed partners are absent; removing them is a no-op.
  for (const std::uint32_t peer : partners_[sat]) graph_.remove_undirected_edge(sat, peer);
  topology_changed();
  if (auto* m = obs::metrics()) {
    m->counter("spacecdn_isl_fail_total").inc();
    m->gauge("spacecdn_isl_failed_satellites").set(static_cast<double>(failed_count_));
  }
}

void IslNetwork::recover(std::uint32_t sat) {
  SPACECDN_EXPECT(sat < failed_.size(), "satellite id out of range");
  if (!failed_[sat]) return;
  failed_[sat] = false;
  --failed_count_;
  for (const std::uint32_t neighbor : partners_[sat]) {
    if (failed_[neighbor]) continue;
    // Same weight formula as construction, from the same snapshot geometry,
    // so restored links carry bit-identical latencies.
    const Kilometers d = snapshot_->isl_distance(sat, neighbor);
    const Milliseconds latency =
        geo::propagation_delay(d, geo::Medium::kVacuum) + config_.per_hop_overhead;
    graph_.add_undirected_edge(sat, neighbor, latency);
  }
  topology_changed();
  if (auto* m = obs::metrics()) {
    m->counter("spacecdn_isl_recover_total").inc();
    m->gauge("spacecdn_isl_failed_satellites").set(static_cast<double>(failed_count_));
  }
}

Milliseconds IslNetwork::link_latency(std::uint32_t a, std::uint32_t b) const {
  for (const net::Edge& e : graph_.neighbors(a)) {
    if (e.to == b) return e.weight;
  }
  throw ConfigError("satellites are not ISL neighbours");
}

Milliseconds IslNetwork::path_latency(std::uint32_t from, std::uint32_t to) const {
  SPACECDN_PROFILE("IslNetwork::path_latency");
  const auto sssp = tree(from);
  SPACECDN_EXPECT(sssp->reachable(to), "ISL fabric must be connected");
  return sssp->distance(to);
}

std::vector<Milliseconds> IslNetwork::latencies_from(std::uint32_t sat) const {
  SPACECDN_PROFILE("IslNetwork::latencies_from");
  return tree(sat)->distances();
}

std::shared_ptr<const net::SsspTree> IslNetwork::sssp_from(std::uint32_t sat) const {
  SPACECDN_PROFILE("IslNetwork::sssp_from");
  return tree(sat);
}

std::shared_ptr<const net::SsspTree> IslNetwork::tree(std::uint32_t sat) const {
  SPACECDN_EXPECT(sat < routes_.size(), "satellite id out of range");
  {
    const std::shared_lock lock(routes_mutex_);
    if (auto hit = routes_[sat].tree) {
      sssp_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }
  // Seed outside the lock; the tree settles lazily as queries reach it.
  auto seeded = std::make_shared<const net::SsspTree>(graph_, sat);
  const std::unique_lock lock(routes_mutex_);
  sssp_misses_.fetch_add(1, std::memory_order_relaxed);
  auto& slot = routes_[sat].tree;
  if (slot == nullptr) slot = std::move(seeded);
  return slot;
}

std::shared_ptr<const std::vector<net::HopDistance>> IslNetwork::within_hops(
    std::uint32_t sat, std::uint32_t max_hops) const {
  SPACECDN_PROFILE("IslNetwork::within_hops");
  SPACECDN_EXPECT(sat < routes_.size(), "satellite id out of range");
  {
    const std::shared_lock lock(routes_mutex_);
    const RouteSlot& slot = routes_[sat];
    if (slot.ring != nullptr && slot.ring_hops == max_hops) return slot.ring;
  }
  // BFS outside the lock.
  auto ring = std::make_shared<const std::vector<net::HopDistance>>(
      net::nodes_within_hops(graph_, sat, max_hops));
  const std::unique_lock lock(routes_mutex_);
  RouteSlot& slot = routes_[sat];
  if (slot.ring == nullptr || slot.ring_hops != max_hops) {
    slot.ring = std::move(ring);
    slot.ring_hops = max_hops;
  }
  return slot.ring;
}

}  // namespace spacecdn::lsn
