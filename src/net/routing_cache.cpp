#include "net/routing_cache.hpp"

#include <algorithm>
#include <functional>

#include "obs/profile.hpp"
#include "util/error.hpp"

namespace spacecdn::net {

SsspTree::SsspTree(const Graph& graph, NodeId source)
    : csr_(graph.csr_snapshot()),
      source_(source),
      distances_(graph.node_count(), Milliseconds{kUnreachable}),
      parents_(graph.node_count(), source) {
  SPACECDN_EXPECT(source < graph.node_count(), "source node out of range");
  distances_[source] = Milliseconds{0.0};
  heap_.push_back({0.0, source});
}

void SsspTree::settle(NodeId target) const {
  SPACECDN_EXPECT(target < distances_.size(), "target node out of range");
  if (complete_.load(std::memory_order_acquire)) return;
  const std::lock_guard lock(mutex_);
  // Another query may have finished the run while this one waited.
  if (!heap_.empty() && heap_.front().dist < distances_[target].value()) run(target);
}

void SsspTree::finish() const {
  if (complete_.load(std::memory_order_acquire)) return;
  const std::lock_guard lock(mutex_);
  if (!heap_.empty()) run(kAllNodes);
}

void SsspTree::run(NodeId target) const {
  SPACECDN_PROFILE("SsspTree::settle");
  // The same push_heap/pop_heap calls std::priority_queue makes in
  // shortest_distances, over the same CSR edge order (insertion order), so
  // this is a resumable copy of that run: equal-distance ties break the
  // same way and the parents match bit for bit.
  const CsrView csr = csr_->view();
  while (!heap_.empty()) {
    if (target != kAllNodes && !(heap_.front().dist < distances_[target].value())) return;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > distances_[u].value()) continue;  // stale entry
    for (std::uint32_t ei = csr.offsets[u]; ei < csr.offsets[u + 1]; ++ei) {
      const NodeId v = csr.targets[ei];
      const double nd = d + csr.weights[ei];
      if (nd < distances_[v].value()) {
        distances_[v] = Milliseconds{nd};
        parents_[v] = u;
        heap_.push_back({nd, v});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }
  std::vector<HeapEntry>().swap(heap_);
  complete_.store(true, std::memory_order_release);
}

std::uint32_t SsspTree::hops_to(NodeId target) const {
  SPACECDN_EXPECT(reachable(target), "target unreachable from SSSP source");
  std::uint32_t hops = 0;
  for (NodeId n = target; n != source_; n = parents_[n]) ++hops;
  return hops;
}

Path SsspTree::path_to(NodeId target) const {
  SPACECDN_EXPECT(reachable(target), "target unreachable from SSSP source");
  Path path;
  path.total = distances_[target];
  for (NodeId n = target;; n = parents_[n]) {
    path.nodes.push_back(n);
    if (n == source_) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

}  // namespace spacecdn::net
