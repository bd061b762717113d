// Unit tests for the net module: graph/routing, bufferbloat, TCP, DNS,
// anycast.
#include <gtest/gtest.h>

#include <cmath>

#include "des/stats.hpp"
#include "net/anycast.hpp"
#include "net/dns.hpp"
#include "net/graph.hpp"
#include "net/link.hpp"
#include "net/tcp_model.hpp"
#include "util/error.hpp"

namespace spacecdn::net {
namespace {

Graph diamond() {
  // Diamond: 0-1 (1 ms), 1-3 (1 ms), 0-2 (1 ms), 2-3 (5 ms).
  Graph g(4);
  g.add_undirected_edge(0, 1, Milliseconds{1.0});
  g.add_undirected_edge(1, 3, Milliseconds{1.0});
  g.add_undirected_edge(0, 2, Milliseconds{1.0});
  g.add_undirected_edge(2, 3, Milliseconds{5.0});
  return g;
}

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(a, b, Milliseconds{2.0});
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  ASSERT_EQ(g.neighbors(a).size(), 1u);
  EXPECT_EQ(g.neighbors(a)[0].to, b);
  EXPECT_TRUE(g.neighbors(b).empty());  // directed
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, Milliseconds{1.0}), ConfigError);
  EXPECT_THROW(g.add_edge(0, 1, Milliseconds{-1.0}), ConfigError);
  EXPECT_THROW((void)g.neighbors(9), ConfigError);
}

TEST(Graph, ClearEdgesKeepsNodes) {
  Graph g = diamond();
  g.clear_edges();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Csr, ViewMatchesAdjacencyInInsertionOrder) {
  const Graph g = diamond();
  const CsrView csr = g.csr();
  ASSERT_EQ(csr.offsets.size(), g.node_count() + 1);
  EXPECT_EQ(csr.targets.size(), g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto& adj = g.neighbors(u);
    ASSERT_EQ(csr.offsets[u + 1] - csr.offsets[u], adj.size());
    for (std::size_t k = 0; k < adj.size(); ++k) {
      // Per-node edge order is insertion order: Dijkstra's relaxation
      // sequence over the flat view is bit-identical to the nested one.
      EXPECT_EQ(csr.targets[csr.offsets[u] + k], adj[k].to);
      EXPECT_EQ(csr.weights[csr.offsets[u] + k], adj[k].weight.value());
    }
  }
}

TEST(Csr, RebuildsAfterMutation) {
  Graph g = diamond();
  (void)g.csr();
  g.add_undirected_edge(1, 2, Milliseconds{0.25});
  const CsrView csr = g.csr();  // lazily rebuilt after the mutation
  EXPECT_EQ(csr.targets.size(), g.edge_count());
  g.clear_edges();
  EXPECT_EQ(g.csr().targets.size(), 0u);
}

TEST(Csr, CopiedGraphHasIndependentView) {
  Graph original = diamond();
  (void)original.csr();
  Graph copy = original;
  copy.add_undirected_edge(0, 3, Milliseconds{0.5});
  EXPECT_EQ(copy.csr().targets.size(), original.csr().targets.size() + 2);
}

TEST(Dijkstra, FindsShortestPath) {
  const Graph g = diamond();
  const auto path = shortest_path(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->total.value(), 2.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(path->hop_count(), 2u);
}

TEST(Dijkstra, DistancesFromSource) {
  const Graph g = diamond();
  const auto dist = shortest_distances(g, 0);
  EXPECT_DOUBLE_EQ(dist[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(dist[1].value(), 1.0);
  EXPECT_DOUBLE_EQ(dist[2].value(), 1.0);
  EXPECT_DOUBLE_EQ(dist[3].value(), 2.0);
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_undirected_edge(0, 1, Milliseconds{1.0});
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
  EXPECT_TRUE(std::isinf(shortest_distances(g, 0)[2].value()));
}

TEST(Dijkstra, SelfPathIsEmpty) {
  const Graph g = diamond();
  const auto path = shortest_path(g, 2, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->total.value(), 0.0);
  EXPECT_EQ(path->hop_count(), 0u);
}

TEST(Bfs, NodesWithinHops) {
  // Path graph 0-1-2-3-4.
  Graph g(5);
  for (NodeId i = 0; i + 1 < 5; ++i) g.add_undirected_edge(i, i + 1, Milliseconds{1.0});
  const auto within = nodes_within_hops(g, 0, 2);
  ASSERT_EQ(within.size(), 3u);
  EXPECT_EQ(within[0].node, 0u);
  EXPECT_EQ(within[0].hops, 0u);
  EXPECT_EQ(within[2].node, 2u);
  EXPECT_EQ(within[2].hops, 2u);
}

TEST(Bfs, ZeroHopsIsJustSource) {
  const Graph g = diamond();
  const auto within = nodes_within_hops(g, 1, 0);
  ASSERT_EQ(within.size(), 1u);
  EXPECT_EQ(within[0].node, 1u);
}

TEST(Bfs, HopOrderIsBreadthFirst) {
  const Graph g = diamond();
  const auto within = nodes_within_hops(g, 0, 10);
  for (std::size_t i = 1; i < within.size(); ++i) {
    EXPECT_GE(within[i].hops, within[i - 1].hops);
  }
  EXPECT_EQ(within.size(), 4u);
}

TEST(Bufferbloat, QuadraticInLoad) {
  const BufferbloatModel b(Milliseconds{200.0});
  EXPECT_DOUBLE_EQ(b.expected_bloat(0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(b.expected_bloat(0.5).value(), 50.0);
  EXPECT_DOUBLE_EQ(b.expected_bloat(1.0).value(), 200.0);
}

TEST(Bufferbloat, SamplesCenterOnExpectation) {
  const BufferbloatModel b(Milliseconds{200.0}, 0.3);
  des::Rng rng(2);
  des::SampleSet s;
  for (int i = 0; i < 10000; ++i) s.add(b.sample_bloat(1.0, rng).value());
  EXPECT_NEAR(s.median(), 200.0, 10.0);
}

TEST(Tcp, ConnectAndTlsAreRtts) {
  const TcpModel tcp;
  EXPECT_DOUBLE_EQ(tcp.connect_time(Milliseconds{30.0}).value(), 30.0);
  EXPECT_DOUBLE_EQ(tcp.tls_time(Milliseconds{30.0}).value(), 30.0);
  EXPECT_DOUBLE_EQ(
      tcp.http_response_time(Milliseconds{30.0}, Milliseconds{10.0}).value(), 40.0);
}

TEST(Tcp, TinyObjectFitsInInitialWindow) {
  const TcpModel tcp;
  // 10 KB < IW10 * 1460 B, so the transfer takes less than one full RTT.
  const Milliseconds t =
      tcp.transfer_time(Megabytes{0.01}, Milliseconds{50.0}, Mbps{100.0});
  EXPECT_LT(t.value(), 50.0);
  EXPECT_GT(t.value(), 0.0);
}

TEST(Tcp, SlowStartDoublesPerRtt) {
  const TcpModel tcp;
  // 100 KB at IW10 (14.6 KB): rounds of 14.6 and 29.2 KB leave 56.2 KB,
  // which the 58.4 KB third window finishes -> just under 3 RTTs.
  const Milliseconds t =
      tcp.transfer_time(Megabytes{0.1}, Milliseconds{40.0}, Mbps{1000.0});
  EXPECT_GT(t.value(), 2 * 40.0);
  EXPECT_LT(t.value(), 3 * 40.0);
}

TEST(Tcp, LargeTransferApproachesLineRate) {
  const TcpModel tcp;
  // 100 MB over 100 Mbps: ~8 s at line rate; slow start adds little.
  const Milliseconds t =
      tcp.transfer_time(Megabytes{100.0}, Milliseconds{20.0}, Mbps{100.0});
  EXPECT_NEAR(t.value(), 8000.0, 300.0);
}

TEST(Tcp, TransferMonotoneInRttAndSize) {
  const TcpModel tcp;
  const Milliseconds small =
      tcp.transfer_time(Megabytes{1.0}, Milliseconds{20.0}, Mbps{100.0});
  const Milliseconds larger =
      tcp.transfer_time(Megabytes{2.0}, Milliseconds{20.0}, Mbps{100.0});
  const Milliseconds slower =
      tcp.transfer_time(Megabytes{1.0}, Milliseconds{80.0}, Mbps{100.0});
  EXPECT_LT(small, larger);
  EXPECT_LT(small, slower);
}

TEST(Tcp, ZeroSizeIsFree) {
  const TcpModel tcp;
  EXPECT_DOUBLE_EQ(
      tcp.transfer_time(Megabytes{0.0}, Milliseconds{50.0}, Mbps{10.0}).value(), 0.0);
}

TEST(Tcp, ObjectFetchComposes) {
  const TcpModel tcp;
  const Milliseconds rtt{10.0};
  const Milliseconds fetch =
      tcp.object_fetch_time(Megabytes{0.001}, rtt, Mbps{1000.0}, Milliseconds{5.0});
  // connect (10) + tls (10) + response (15) + tiny transfer.
  EXPECT_GT(fetch.value(), 35.0);
  EXPECT_LT(fetch.value(), 40.0);
}

TEST(Dns, CacheHitIsResolverRtt) {
  DnsConfig cfg;
  cfg.resolver_rtt = Milliseconds{12.0};
  cfg.cache_hit_probability = 1.0;
  const DnsModel dns(cfg);
  des::Rng rng(3);
  EXPECT_DOUBLE_EQ(dns.sample_lookup_time(rng).value(), 12.0);
  EXPECT_DOUBLE_EQ(dns.expected_lookup_time().value(), 12.0);
}

TEST(Dns, MissAddsAuthoritativeRtts) {
  DnsConfig cfg;
  cfg.resolver_rtt = Milliseconds{10.0};
  cfg.cache_hit_probability = 0.0;
  cfg.miss_round_trips = 2;
  cfg.authoritative_rtt = Milliseconds{30.0};
  const DnsModel dns(cfg);
  des::Rng rng(4);
  EXPECT_DOUBLE_EQ(dns.sample_lookup_time(rng).value(), 70.0);
  EXPECT_DOUBLE_EQ(dns.expected_lookup_time().value(), 70.0);
}

TEST(Dns, ExpectedInterpolatesHitRate) {
  DnsConfig cfg;
  cfg.resolver_rtt = Milliseconds{10.0};
  cfg.cache_hit_probability = 0.5;
  cfg.miss_round_trips = 1;
  cfg.authoritative_rtt = Milliseconds{40.0};
  EXPECT_DOUBLE_EQ(DnsModel(cfg).expected_lookup_time().value(), 30.0);
}

TEST(Anycast, IdealPicksArgmin) {
  const std::vector<Milliseconds> latencies{Milliseconds{30.0}, Milliseconds{10.0},
                                            Milliseconds{20.0}};
  const AnycastChoice c = AnycastSelector::select_ideal(latencies);
  EXPECT_EQ(c.site_index, 1u);
  EXPECT_DOUBLE_EQ(c.latency.value(), 10.0);
}

TEST(Anycast, ZeroNoiseEqualsIdeal) {
  const AnycastSelector selector(0.0);
  des::Rng rng(5);
  const std::vector<Milliseconds> latencies{Milliseconds{5.0}, Milliseconds{50.0}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(selector.select(latencies, rng).site_index, 0u);
  }
}

TEST(Anycast, NoiseSpreadsChoicesButFavorsNear) {
  const AnycastSelector selector(15.0);
  des::Rng rng(6);
  const std::vector<Milliseconds> latencies{Milliseconds{10.0}, Milliseconds{18.0},
                                            Milliseconds{300.0}};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 5000; ++i) ++counts[selector.select(latencies, rng).site_index];
  EXPECT_GT(counts[0], counts[1]);   // nearer wins more often
  EXPECT_GT(counts[1], 100);         // but the neighbour gets real share
  EXPECT_LT(counts[2], 50);          // the far site almost never
}

TEST(Anycast, RejectsEmptySites) {
  EXPECT_THROW((void)AnycastSelector::select_ideal({}), ConfigError);
}

}  // namespace
}  // namespace spacecdn::net
