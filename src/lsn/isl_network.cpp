#include "lsn/isl_network.hpp"

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
      route_cache_(graph_, snapshot.size()),
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
  route_cache_.invalidate();
  rings_.clear();
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
  const auto tree = route_cache_.tree(from);
  SPACECDN_EXPECT(tree->reachable(to), "ISL fabric must be connected");
  return tree->distance(to);
}

std::vector<Milliseconds> IslNetwork::latencies_from(std::uint32_t sat) const {
  SPACECDN_PROFILE("IslNetwork::latencies_from");
  return route_cache_.tree(sat)->distances();
}

std::shared_ptr<const net::SsspTree> IslNetwork::sssp_from(std::uint32_t sat) const {
  SPACECDN_PROFILE("IslNetwork::sssp_from");
  return route_cache_.tree(sat);
}

std::shared_ptr<const std::vector<net::HopDistance>> IslNetwork::within_hops(
    std::uint32_t sat, std::uint32_t max_hops) const {
  SPACECDN_PROFILE("IslNetwork::within_hops");
  const std::uint64_t key = (std::uint64_t{sat} << 32) | max_hops;
  {
    const std::shared_lock lock(rings_mutex_);
    if (const auto it = rings_.find(key); it != rings_.end()) return it->second;
  }
  // BFS outside the lock; concurrent misses on one key compute the same
  // ring and the first insert wins.
  auto ring = std::make_shared<const std::vector<net::HopDistance>>(
      net::nodes_within_hops(graph_, sat, max_hops));
  const std::unique_lock lock(rings_mutex_);
  if (rings_.size() >= graph_.node_count()) rings_.clear();
  return rings_.try_emplace(key, std::move(ring)).first->second;
}

}  // namespace spacecdn::lsn
