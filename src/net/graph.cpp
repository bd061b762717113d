#include "net/graph.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace spacecdn::net {

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  csr_dirty_.store(true, std::memory_order_release);
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Graph::add_edge(NodeId from, NodeId to, Milliseconds weight) {
  SPACECDN_EXPECT(from < adjacency_.size() && to < adjacency_.size(),
                  "edge endpoints must be existing nodes");
  SPACECDN_EXPECT(weight.value() >= 0.0, "edge weight must be non-negative");
  adjacency_[from].push_back(Edge{to, weight});
  ++edges_;
  csr_dirty_.store(true, std::memory_order_release);
}

void Graph::add_undirected_edge(NodeId a, NodeId b, Milliseconds weight) {
  add_edge(a, b, weight);
  add_edge(b, a, weight);
}

std::size_t Graph::remove_edge(NodeId from, NodeId to) {
  SPACECDN_EXPECT(from < adjacency_.size() && to < adjacency_.size(),
                  "edge endpoints must be existing nodes");
  auto& adj = adjacency_[from];
  const auto removed_begin =
      std::remove_if(adj.begin(), adj.end(), [to](const Edge& e) { return e.to == to; });
  const auto removed = static_cast<std::size_t>(adj.end() - removed_begin);
  adj.erase(removed_begin, adj.end());
  edges_ -= removed;
  if (removed != 0) csr_dirty_.store(true, std::memory_order_release);
  return removed;
}

std::size_t Graph::remove_undirected_edge(NodeId a, NodeId b) {
  return remove_edge(a, b) + remove_edge(b, a);
}

std::span<const Edge> Graph::neighbors(NodeId node) const {
  SPACECDN_EXPECT(node < adjacency_.size(), "node id out of range");
  return adjacency_[node];
}

void Graph::clear_edges() noexcept {
  for (auto& adj : adjacency_) adj.clear();
  edges_ = 0;
  csr_dirty_.store(true, std::memory_order_release);
}

void Graph::rebuild_csr() const {
  const std::size_t n = adjacency_.size();
  auto csr = std::make_shared<CsrSnapshot>();
  csr->offsets.assign(n + 1, 0);
  csr->targets.reserve(edges_);
  csr->weights.reserve(edges_);
  for (std::size_t u = 0; u < n; ++u) {
    // Flattening preserves per-node edge order, the property the queries
    // rely on for bit-exact relaxation order.
    for (const Edge& e : adjacency_[u]) {
      csr->targets.push_back(e.to);
      csr->weights.push_back(e.weight.value());
    }
    csr->offsets[u + 1] = static_cast<std::uint32_t>(csr->targets.size());
  }
  csr_ = std::move(csr);
}

std::shared_ptr<const CsrSnapshot> Graph::csr_snapshot() const {
  if (csr_dirty_.load(std::memory_order_acquire)) {
    const std::lock_guard lock(csr_mutex_);
    if (csr_dirty_.load(std::memory_order_relaxed)) {
      rebuild_csr();
      // Publishes the rebuilt snapshot: a reader whose acquire load above
      // sees `false` also sees every write rebuild_csr made.
      csr_dirty_.store(false, std::memory_order_release);
    }
  }
  return csr_;
}

namespace {

struct QueueEntry {
  double dist;
  NodeId node;
  bool operator>(const QueueEntry& o) const noexcept { return dist > o.dist; }
};

}  // namespace

std::vector<Milliseconds> shortest_distances(const Graph& g, NodeId source) {
  SPACECDN_EXPECT(source < g.node_count(), "source node out of range");
  const CsrView csr = g.csr();
  std::vector<double> dist(g.node_count(), kUnreachable);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;  // stale entry
    // CSR edge order == insertion order, so the relaxation sequence (and any
    // equal-distance tie outcome) matches the adjacency-list loop exactly.
    for (std::uint32_t ei = csr.offsets[u]; ei < csr.offsets[u + 1]; ++ei) {
      const NodeId v = csr.targets[ei];
      const double nd = d + csr.weights[ei];
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  std::vector<Milliseconds> out;
  out.reserve(dist.size());
  for (double d : dist) out.emplace_back(d);
  return out;
}

std::optional<Path> shortest_path(const Graph& g, NodeId source, NodeId target) {
  SPACECDN_EXPECT(source < g.node_count() && target < g.node_count(),
                  "path endpoints must be existing nodes");
  const CsrView csr = g.csr();
  std::vector<double> dist(g.node_count(), kUnreachable);
  std::vector<NodeId> prev(g.node_count(), source);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (u == target) break;
    if (d > dist[u]) continue;
    for (std::uint32_t ei = csr.offsets[u]; ei < csr.offsets[u + 1]; ++ei) {
      const NodeId v = csr.targets[ei];
      const double nd = d + csr.weights[ei];
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        pq.push({nd, v});
      }
    }
  }
  if (dist[target] == kUnreachable) return std::nullopt;

  Path path;
  path.total = Milliseconds{dist[target]};
  for (NodeId n = target;; n = prev[n]) {
    path.nodes.push_back(n);
    if (n == source) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

std::vector<HopDistance> nodes_within_hops(const Graph& g, NodeId source,
                                           std::uint32_t max_hops) {
  SPACECDN_EXPECT(source < g.node_count(), "source node out of range");
  const CsrView csr = g.csr();
  std::vector<bool> seen(g.node_count(), false);
  std::vector<HopDistance> out;
  std::queue<HopDistance> frontier;
  seen[source] = true;
  frontier.push({source, 0});
  while (!frontier.empty()) {
    const HopDistance cur = frontier.front();
    frontier.pop();
    out.push_back(cur);
    if (cur.hops == max_hops) continue;
    for (std::uint32_t ei = csr.offsets[cur.node]; ei < csr.offsets[cur.node + 1]; ++ei) {
      const NodeId v = csr.targets[ei];
      if (!seen[v]) {
        seen[v] = true;
        frontier.push({v, cur.hops + 1});
      }
    }
  }
  return out;
}

}  // namespace spacecdn::net
