// Unit tests for the graph substrate: Graph, Multigraph, BipartiteGraph,
// structural properties, IO, and the virtual-node transforms.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <sstream>

#include "graph/bipartite.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/multigraph.hpp"
#include "graph/properties.hpp"
#include "graph/virtual_split.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::graph {
namespace {

Graph triangle_with_tail() {
  return Graph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

std::vector<NodeId> row(const Graph& g, NodeId v) {
  return {g.neighbors(v).begin(), g.neighbors(v).end()};
}

TEST(Graph, DegreesAndEdges) {
  const Graph g = triangle_with_tail();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, ConstructorNormalisesEdgesAndFillsRowsInEdgeOrder) {
  const Graph g(3, {{2, 0}, {1, 0}, {2, 1}});
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edges()[0], (Edge{0, 2}));
  EXPECT_EQ(g.edges()[1], (Edge{0, 1}));
  EXPECT_EQ(g.edges()[2], (Edge{1, 2}));
  EXPECT_EQ(row(g, 0), (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(row(g, 1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(row(g, 2), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(std::vector<std::uint64_t>(g.offsets().begin(), g.offsets().end()),
            (std::vector<std::uint64_t>{0, 2, 4, 6}));
}

TEST(Graph, RejectsSelfLoopsAndParallelEdges) {
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 1}}), CheckError);  // self-loop
  EXPECT_THROW(Graph(3, {{0, 3}}), CheckError);          // endpoint >= n
  EXPECT_THROW(Graph(3, {{0, 1}, {2, 0}, {0, 1}}), CheckError);  // parallel
  EXPECT_THROW(Graph(3, {{0, 1}, {2, 0}, {1, 0}}), CheckError);  // reversed
  EXPECT_NO_THROW(Graph(3, {{0, 1}, {2, 0}, {1, 2}}));
}

TEST(Graph, CopiesShareTheImage) {
  const Graph g = triangle_with_tail();
  const Graph copy = g;
  EXPECT_EQ(copy.neighbors(0).data(), g.neighbors(0).data());
  EXPECT_EQ(copy.offsets().data(), g.offsets().data());
  EXPECT_EQ(copy.edges().data(), g.edges().data());
  // A moved-from graph keeps its share: once the target is gone, its reads
  // still land in a live image (a heap-use-after-free under ASan if the
  // move had taken the keepalive).
  Graph source = triangle_with_tail();
  { const Graph target = std::move(source); }
  EXPECT_EQ(source.degree(2), 3u);
  EXPECT_EQ(source.edges()[3], (Edge{2, 3}));
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.offsets().size(), 1u);
  EXPECT_EQ(g.offsets()[0], 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_EQ(Graph(0).offsets().size(), 1u);
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  const Graph g = triangle_with_tail();
  const auto [sub, to_parent] = g.induced_subgraph({0, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // {0,2} and {2,3}
  EXPECT_EQ(to_parent.size(), 3u);
  EXPECT_EQ(to_parent[0], 0u);
  EXPECT_EQ(to_parent[1], 2u);
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  const Graph g = triangle_with_tail();
  EXPECT_THROW(g.induced_subgraph({0, 0}), CheckError);
}

TEST(Multigraph, ParallelEdgesAndSelfLoops) {
  const Multigraph m(2, {{0, 1}, {0, 1}, {1, 1}});
  const EdgeId e1 = 0;
  const EdgeId loop = 2;
  EXPECT_EQ(m.num_edges(), 3u);
  EXPECT_EQ(m.degree(0), 2u);
  EXPECT_EQ(m.degree(1), 4u);  // two parallel + self-loop counted twice
  EXPECT_EQ(m.other_endpoint(e1, 0), 1u);
  EXPECT_EQ(m.other_endpoint(loop, 1), 1u);
  // Incident lists are in id order; a self-loop is listed twice.
  EXPECT_TRUE(std::ranges::equal(m.incident_edges(1),
                                 std::vector<EdgeId>{0, 1, 2, 2}));
  EXPECT_EQ(m.endpoints(1), (Edge{0, 1}));
}

TEST(Multigraph, KeepsOrientationAndRejectsOutOfRange) {
  const Multigraph m(3, {{2, 0}});
  EXPECT_EQ(m.endpoints(0), (Edge{2, 0}));  // as given, not u < v
  EXPECT_EQ(m.degree(1), 0u);
  EXPECT_TRUE(m.incident_edges(1).empty());
  EXPECT_THROW(Multigraph(2, {{0, 2}}), CheckError);
}

TEST(Multigraph, DiscrepancyCountsBalance) {
  const Multigraph m(3, {{0, 1}, {0, 2}});
  Orientation orient;
  orient.toward_v = {true, true};  // both out of node 0
  EXPECT_EQ(orientation_discrepancy(m, orient, 0), 2u);
  EXPECT_EQ(orientation_discrepancy(m, orient, 1), 1u);
  orient.toward_v = {true, false};  // one out, one in at node 0
  EXPECT_EQ(orientation_discrepancy(m, orient, 0), 0u);
}

TEST(Multigraph, SelfLoopHasZeroDiscrepancy) {
  const Multigraph m(1, {{0, 0}});
  Orientation orient;
  orient.toward_v = {true};
  EXPECT_EQ(orientation_discrepancy(m, orient, 0), 0u);
}

BipartiteGraph small_instance() {
  // U = {0,1}, V = {0,1,2}; u0 ~ {v0,v1}, u1 ~ {v1,v2}.
  return BipartiteGraph(2, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}});
}

TEST(Bipartite, DegreesRankAndNeighbors) {
  const BipartiteGraph b = small_instance();
  EXPECT_EQ(b.num_left(), 2u);
  EXPECT_EQ(b.num_right(), 3u);
  EXPECT_EQ(b.num_nodes(), 5u);
  EXPECT_EQ(b.num_edges(), 4u);
  EXPECT_EQ(b.min_left_degree(), 2u);
  EXPECT_EQ(b.max_left_degree(), 2u);
  EXPECT_EQ(b.rank(), 2u);  // v1 has two constraints
  EXPECT_EQ(b.min_right_degree(), 1u);
  EXPECT_EQ(b.left_neighbors(0), (std::vector<RightId>{0, 1}));
  EXPECT_TRUE(std::ranges::equal(b.right_neighbors(1),
                                 std::vector<LeftId>{0, 1}));
  EXPECT_TRUE(std::ranges::equal(b.left_edges(1), std::vector<EdgeId>{2, 3}));
  EXPECT_TRUE(std::ranges::equal(b.right_edges(1), std::vector<EdgeId>{1, 2}));
  EXPECT_EQ(b.endpoints(3), (std::pair<LeftId, RightId>{1, 2}));
  EXPECT_TRUE(b.has_edge(0, 1));
  EXPECT_FALSE(b.has_edge(0, 2));
}

TEST(Bipartite, RejectsParallelEdges) {
  EXPECT_THROW(BipartiteGraph(1, 1, {{0, 0}, {0, 0}}), CheckError);
}

TEST(Bipartite, RejectsEndpointsOutOfRange) {
  // Checked before right node v becomes vertex nu + v: left endpoint 3
  // must not become vertex 3 (right node 1), an edge inside the right side.
  EXPECT_THROW(BipartiteGraph(2, 3, {{3, 0}}), CheckError);
  EXPECT_THROW(BipartiteGraph(2, 3, {{0, 3}}), CheckError);
  EXPECT_THROW(BipartiteGraph(std::size_t{1} << 31, std::size_t{1} << 31),
               CheckError);
}

TEST(Bipartite, FilterEdgesRenumbers) {
  const BipartiteGraph b = small_instance();
  const auto [filtered, new_to_old] =
      b.filter_edges({true, false, false, true});
  EXPECT_EQ(filtered.num_edges(), 2u);
  EXPECT_EQ(filtered.num_left(), 2u);   // node sets preserved
  EXPECT_EQ(filtered.num_right(), 3u);
  EXPECT_EQ(new_to_old, (std::vector<EdgeId>{0, 3}));
  EXPECT_EQ(filtered.left_degree(0), 1u);
  EXPECT_EQ(filtered.right_degree(1), 0u);
}

TEST(Bipartite, UnifiedGraphLayout) {
  const BipartiteGraph b = small_instance();
  const Graph& u = b.unified();
  EXPECT_EQ(u.num_nodes(), 5u);
  EXPECT_EQ(u.num_edges(), 4u);
  EXPECT_TRUE(u.has_edge(b.unified_left(0), b.unified_right(0)));
  EXPECT_TRUE(u.has_edge(b.unified_left(1), b.unified_right(2)));
  // Edge e of the instance is edge e of its unified image.
  EXPECT_EQ(u.edges()[3], (Edge{1, 4}));
  // A copy shares the image rather than rebuilding it.
  const BipartiteGraph copy = b;
  EXPECT_EQ(copy.unified().offsets().data(), u.offsets().data());
  // So does a view of an existing unified graph ...
  const Graph g(5, {{0, 2}, {1, 3}, {1, 4}});
  const BipartiteGraph view = bipartite_from_unified(g, 2);
  EXPECT_EQ(view.unified().offsets().data(), g.offsets().data());
  EXPECT_EQ(view.endpoints(2), (std::pair<LeftId, RightId>{1, 2}));
  // ... and of a loaded .dsg file: the instance reads the mapping itself.
  const std::string path = ::testing::TempDir() + "/unified_layout.dsg";
  write_dsg(b.unified(), path, b.num_left());
  DsgHeader header;
  const Graph mapped = load_dsg(path, &header);
  const BipartiteGraph loaded =
      bipartite_from_unified(mapped, static_cast<std::size_t>(header.nu));
  EXPECT_EQ(loaded.unified().offsets().data(), mapped.offsets().data());
  EXPECT_EQ(loaded.unified().edges().data(), mapped.edges().data());
  EXPECT_TRUE(std::ranges::equal(loaded.right_edges(1), b.right_edges(1)));
}

TEST(Bipartite, ConnectedComponentsSplitAndMapBack) {
  // u1,u2,v1 one component; u0,v0 another; v2 isolated.
  const BipartiteGraph b(3, 3, {{0, 0}, {1, 1}, {2, 1}});
  const auto comps = connected_components(b);
  EXPECT_EQ(comps.size(), 2u);
  // Numbered by first unified vertex; members in parent order.
  EXPECT_EQ(comps[1].left_to_parent, (std::vector<LeftId>{1, 2}));
  EXPECT_EQ(comps[1].right_to_parent, (std::vector<RightId>{1}));
  std::size_t total_edges = 0;
  for (const auto& c : comps) {
    total_edges += c.graph.num_edges();
    // Mapping consistency: every component edge exists in the parent.
    for (EdgeId e = 0; e < c.graph.num_edges(); ++e) {
      const auto [lu, lv] = c.graph.endpoints(e);
      EXPECT_TRUE(b.has_edge(c.left_to_parent[lu], c.right_to_parent[lv]));
    }
  }
  EXPECT_EQ(total_edges, b.num_edges());
}

TEST(Bipartite, IsolatedNodesOptIn) {
  const BipartiteGraph b(1, 2, {{0, 0}});
  EXPECT_EQ(connected_components(b, false).size(), 1u);
  EXPECT_EQ(connected_components(b, true).size(), 2u);
}

TEST(Properties, BfsDistances) {
  const Graph g = triangle_with_tail();
  const auto dist = bfs_distances(g, 3);
  EXPECT_EQ(dist[3], 0u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[0], 2u);
  const auto capped = bfs_distances(g, 3, 1);
  EXPECT_EQ(capped[0], SIZE_MAX);
}

TEST(Properties, ComponentsAndConnectivity) {
  const Graph g(5, {{0, 1}, {2, 3}});
  const auto labels = component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(triangle_with_tail()));
}

TEST(Properties, GirthOfKnownGraphs) {
  EXPECT_EQ(girth(triangle_with_tail()), 3u);
  const Graph c5(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(girth(c5), 5u);
  const Graph tree(4, {{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(girth(tree), SIZE_MAX);
}

/// The girth scan without its early exits: a full BFS from every root,
/// each with fresh arrays, minimizing over every non-tree edge.
std::size_t full_scan_girth(const Graph& g) {
  constexpr NodeId kNone = static_cast<NodeId>(-1);
  std::size_t best = SIZE_MAX;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    std::vector<std::size_t> dist(g.num_nodes(), SIZE_MAX);
    std::vector<NodeId> parent(g.num_nodes(), kNone);
    std::queue<NodeId> queue;
    dist[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop();
      for (NodeId w : g.neighbors(v)) {
        if (dist[w] == SIZE_MAX) {
          dist[w] = dist[v] + 1;
          parent[w] = v;
          queue.push(w);
        } else if (w != parent[v]) {
          best = std::min(best, dist[v] + dist[w] + 1);
        }
      }
    }
  }
  return best;
}

TEST(Properties, GirthMatchesTheFullScan) {
  // Random gnp graphs from forests to dense ones, then cycles, tori and
  // bipartite instances (whose scan stops at 4, not 3).
  Rng rng(2718);
  std::size_t forests = 0;
  for (int i = 0; i < 300; ++i) {
    const std::size_t n = 5 + rng.next_u64(40);
    const double p = (0.5 + rng.next_double() * 4.0) / static_cast<double>(n);
    const Graph g = gen::gnp(n, p, rng);
    const std::size_t want = full_scan_girth(g);
    forests += want == SIZE_MAX ? 1 : 0;
    EXPECT_EQ(girth(g), want) << "graph " << i << " n=" << n << " p=" << p;
  }
  EXPECT_GT(forests, 0u);
  for (std::size_t k = 3; k < 30; ++k) {
    EXPECT_EQ(girth(gen::cycle(k)), k);
    EXPECT_EQ(full_scan_girth(gen::cycle(k)), k);
  }
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{3, 3},
                             {3, 7},
                             {4, 4},
                             {5, 6},
                             {7, 7},
                             {12, 9}}) {
    const Graph t = gen::torus(w, h);
    EXPECT_EQ(girth(t), full_scan_girth(t)) << w << "x" << h;
  }
  for (const std::size_t delta : {2, 3, 4, 8}) {
    const BipartiteGraph b = gen::random_biregular(40, 80, delta, rng);
    EXPECT_EQ(girth(b.unified()), full_scan_girth(b.unified()))
        << "delta=" << delta;
  }
  const BipartiteGraph long_cycle = gen::bipartite_cycle(9);
  EXPECT_EQ(girth(long_cycle.unified()), 18u);
  EXPECT_EQ(full_scan_girth(long_cycle.unified()), 18u);
}

TEST(Properties, PowerGraphAndBall) {
  const Graph path(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph p2 = power(path, 2);
  EXPECT_TRUE(p2.has_edge(0, 2));
  EXPECT_FALSE(p2.has_edge(0, 3));
  EXPECT_EQ(ball(path, 0, 2), (std::vector<NodeId>{1, 2}));
}

TEST(Io, GraphRoundTrip) {
  const Graph g = triangle_with_tail();
  std::stringstream ss;
  io::write_edge_list(ss, g);
  const Graph h = io::read_edge_list(ss);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_TRUE(h.has_edge(0, 2));
}

TEST(Io, BipartiteRoundTripAndDot) {
  const BipartiteGraph b = small_instance();
  std::stringstream ss;
  io::write_bipartite(ss, b);
  const BipartiteGraph c = io::read_bipartite(ss);
  EXPECT_EQ(c.num_left(), b.num_left());
  EXPECT_EQ(c.num_edges(), b.num_edges());
  EXPECT_TRUE(c.has_edge(1, 2));
  const std::string dot = io::to_dot(b, {"red", "blue", "red"});
  EXPECT_NE(dot.find("fillcolor=red"), std::string::npos);
}

TEST(Io, MalformedInputThrows) {
  std::stringstream ss("not a header");
  EXPECT_THROW(io::read_edge_list(ss), CheckError);

  // Input `>>` would misread is refused with its cause: data past the
  // header's m pairs (once dropped silently), and a signed id (once
  // wrapped into node 4294967295), in both formats.
  const auto error_of = [](const std::string& text, bool bipartite) {
    std::stringstream in(text);
    try {
      if (bipartite) {
        (void)io::read_bipartite(in);
      } else {
        (void)io::read_edge_list(in);
      }
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto expect_error = [&](const std::string& text, bool bipartite,
                                const std::string& cause) {
    const std::string what = error_of(text, bipartite);
    EXPECT_NE(what.find(cause), std::string::npos) << text << " -> " << what;
  };
  expect_error("3 1\n0 1\n1 2\n", false,
               "'1' past the 1 edges its header announces");
  expect_error("3 2\n0 1\n-1 2\n", false, "edge 2: '-1' has a sign");
  expect_error("2 2 1\n0 1\n1 0\n", true,
               "'1' past the 1 edges its header announces");
  expect_error("2 2 2\n0 1\n1 -1\n", true, "edge 2: '-1' has a sign");
  expect_error("3 2\n0 1\n1 2x\n", false, "'2x' is not an unsigned decimal");
  expect_error("3 2\n0 1\n", false, "edge 2: missing");
  expect_error("+3 1\n0 1\n", false, "header: '+3' has a sign");
  expect_error("3 1\n0 4294967296\n", false,
               "'4294967296' is not an unsigned decimal up to 4294967295");

  // Trailing whitespace is not data; a well-formed file still reads.
  std::stringstream ok("3 2\n0 1\n1 2\n\n  \n");
  EXPECT_EQ(io::read_edge_list(ok).num_edges(), 2u);
}

TEST(Io, BipartiteLeftEndpointOutOfRangeThrows) {
  // Left node 3 of a 2-left instance: not vertex 3, which is right node 1.
  std::stringstream ss("2 3 2\n0 1\n3 0\n");
  EXPECT_THROW(io::read_bipartite(ss), CheckError);
}

TEST(VirtualSplit, NormalizationBoundsDegrees) {
  // One left node of degree 9 with delta = 2 must split into 4 copies.
  std::vector<Edge> edges;
  for (RightId v = 0; v < 9; ++v) edges.push_back({0, v});
  const BipartiteGraph b(1, 9, std::move(edges));
  const auto norm = normalize_left_degrees(b, 2);
  EXPECT_EQ(norm.graph.num_left(), 4u);
  for (LeftId u = 0; u < norm.graph.num_left(); ++u) {
    EXPECT_GE(norm.graph.left_degree(u), 2u);
    EXPECT_LT(norm.graph.left_degree(u), 4u);
    EXPECT_EQ(norm.left_to_original[u], 0u);
  }
  EXPECT_EQ(norm.graph.num_edges(), b.num_edges());
}

TEST(VirtualSplit, SmallDegreesKeptWhole) {
  const BipartiteGraph b(1, 4, {{0, 0}, {0, 1}, {0, 2}, {0, 3}});
  const auto norm = normalize_left_degrees(b, 2);  // deg 4 = 2*delta: kept
  EXPECT_EQ(norm.graph.num_left(), 1u);
  EXPECT_EQ(norm.graph.left_degree(0), 4u);
}

TEST(VirtualSplit, PaddingRaisesMinDegree) {
  const Graph g(3, {{0, 1}});  // degrees 1,1,0
  const auto padded = pad_to_min_degree(g, 4);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_GE(padded.graph.degree(v), 4u);
    EXPECT_FALSE(padded.is_virtual[v]);
  }
  for (NodeId v = 3; v < padded.graph.num_nodes(); ++v) {
    EXPECT_TRUE(padded.is_virtual[v]);
    EXPECT_LE(padded.graph.degree(v), 4u);
  }
}

}  // namespace
}  // namespace ds::graph
