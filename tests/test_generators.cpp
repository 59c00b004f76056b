// Tests for the instance generators, including parameterized sweeps over
// the (n, d) grid that the experiments use.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "graph/properties.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::graph {
namespace {

TEST(Generators, GnpEdgeCountInRange) {
  Rng rng(1);
  const Graph g = gen::gnp(60, 0.2, rng);
  EXPECT_EQ(g.num_nodes(), 60u);
  // Expected edges: C(60,2)*0.2 = 354; allow wide tolerance.
  EXPECT_GT(g.num_edges(), 220u);
  EXPECT_LT(g.num_edges(), 500u);
}

TEST(Generators, GnpExtremes) {
  Rng rng(2);
  EXPECT_EQ(gen::gnp(20, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(gen::gnp(20, 1.0, rng).num_edges(), 190u);
}

TEST(Generators, CycleCompleteHypercubeTree) {
  Rng rng(3);
  EXPECT_EQ(gen::cycle(7).num_edges(), 7u);
  EXPECT_EQ(girth(gen::cycle(7)), 7u);
  EXPECT_EQ(gen::complete(6).num_edges(), 15u);
  const Graph h = gen::hypercube(4);
  EXPECT_EQ(h.num_nodes(), 16u);
  EXPECT_EQ(h.min_degree(), 4u);
  EXPECT_EQ(h.max_degree(), 4u);
  EXPECT_EQ(girth(h), 4u);
  const Graph t = gen::random_tree(40, rng);
  EXPECT_EQ(t.num_edges(), 39u);
  EXPECT_TRUE(is_connected(t));
  EXPECT_EQ(girth(t), SIZE_MAX);
}

class RandomRegularSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RandomRegularSweep, ExactlyRegularAndSimple) {
  const auto [n, d] = GetParam();
  Rng rng(17 * n + d);
  const Graph g = gen::random_regular(n, d, rng);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), n * d / 2);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(g.degree(v), d) << "node " << v;
  }
  // Simplicity is enforced by Graph::add_edge; reaching here means no
  // duplicate/self edges were produced.
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomRegularSweep,
    ::testing::Values(std::make_tuple(16, 3), std::make_tuple(50, 4),
                      std::make_tuple(64, 7), std::make_tuple(128, 16),
                      std::make_tuple(200, 5), std::make_tuple(30, 29)));

TEST(Generators, RandomRegularRejectsOddProduct) {
  Rng rng(5);
  EXPECT_THROW(gen::random_regular(15, 3, rng), CheckError);
  EXPECT_THROW(gen::random_regular(10, 10, rng), CheckError);
}

TEST(Generators, HighGirthReachesTarget) {
  Rng rng(6);
  const Graph g = gen::high_girth_regular(400, 6, 5, rng);
  EXPECT_GE(girth(g), 5u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.degree(v), 6u);
  }
}

class LeftRegularSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(LeftRegularSweep, LeftDegreesExact) {
  const auto [nu, nv, delta] = GetParam();
  Rng rng(nu * 31 + delta);
  const BipartiteGraph b = gen::random_left_regular(nu, nv, delta, rng);
  EXPECT_EQ(b.num_left(), nu);
  EXPECT_EQ(b.num_right(), nv);
  for (LeftId u = 0; u < nu; ++u) {
    ASSERT_EQ(b.left_degree(u), delta);
  }
  // Neighbors of each left node are distinct (simple graph enforced).
  for (LeftId u = 0; u < nu; ++u) {
    const auto nbrs = b.left_neighbors(u);
    const std::set<RightId> unique(nbrs.begin(), nbrs.end());
    EXPECT_EQ(unique.size(), nbrs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, LeftRegularSweep,
                         ::testing::Values(std::make_tuple(10, 40, 8),
                                           std::make_tuple(32, 64, 16),
                                           std::make_tuple(64, 64, 64),
                                           std::make_tuple(5, 100, 1)));

class BiregularSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(BiregularSweep, BothSidesBalanced) {
  const auto [nu, nv, d] = GetParam();
  Rng rng(nu + nv + d);
  const BipartiteGraph b = gen::random_biregular(nu, nv, d, rng);
  for (LeftId u = 0; u < nu; ++u) {
    ASSERT_EQ(b.left_degree(u), d);
  }
  // Right degrees balanced to within 1 of nu*d/nv.
  const std::size_t total = nu * d;
  const std::size_t lo = total / nv;
  const std::size_t hi = (total + nv - 1) / nv;
  for (RightId v = 0; v < nv; ++v) {
    ASSERT_GE(b.right_degree(v), lo);
    ASSERT_LE(b.right_degree(v), hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, BiregularSweep,
                         ::testing::Values(std::make_tuple(16, 32, 8),
                                           std::make_tuple(64, 128, 32),
                                           std::make_tuple(100, 50, 10),
                                           std::make_tuple(30, 90, 3)));

TEST(Generators, IncidenceBipartiteShape) {
  Rng rng(7);
  const Graph g = gen::random_regular(40, 5, rng);
  const BipartiteGraph b = gen::incidence_bipartite(g);
  EXPECT_EQ(b.num_left(), g.num_nodes());
  EXPECT_EQ(b.num_right(), g.num_edges());
  EXPECT_EQ(b.rank(), 2u);
  for (LeftId u = 0; u < b.num_left(); ++u) {
    EXPECT_EQ(b.left_degree(u), 5u);
  }
}

TEST(Generators, IncidenceDoublesGirth) {
  Rng rng(8);
  const Graph base = gen::cycle(7);
  const BipartiteGraph b = gen::incidence_bipartite(base);
  EXPECT_EQ(girth(b.unified()), 14u);
}

TEST(Generators, BipartiteCycleGirth) {
  const BipartiteGraph b = gen::bipartite_cycle(6);
  EXPECT_EQ(b.num_edges(), 12u);
  EXPECT_EQ(girth(b.unified()), 12u);
  EXPECT_EQ(b.min_left_degree(), 2u);
  EXPECT_EQ(b.rank(), 2u);
}

TEST(Generators, TorusIsFourRegularAndGirthFour) {
  const Graph g = gen::torus(5, 7);
  EXPECT_EQ(g.num_nodes(), 35u);
  EXPECT_EQ(g.num_edges(), 70u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.degree(v), 4u);
  }
  EXPECT_EQ(girth(g), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, TorusMinimumDimensions) {
  const Graph g = gen::torus(3, 3);
  EXPECT_EQ(g.num_nodes(), 9u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.degree(v), 4u);
  }
  EXPECT_EQ(girth(g), 3u);  // wrap-around triangles in a 3-row torus
}

TEST(Generators, ChungLuHeavyTail) {
  Rng rng(9);
  const Graph g = gen::chung_lu_power_law(600, 2.5, 6.0, rng);
  std::size_t max_deg = 0;
  double avg = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.degree(v));
    avg += static_cast<double>(g.degree(v));
  }
  avg /= static_cast<double>(g.num_nodes());
  // Average near the request; maximum far above it (heavy tail).
  EXPECT_GT(avg, 2.0);
  EXPECT_LT(avg, 18.0);
  EXPECT_GT(max_deg, 3 * static_cast<std::size_t>(avg));
}

TEST(Generators, ChungLuGammaControlsSkew) {
  Rng rng(10);
  const Graph flat = gen::chung_lu_power_law(400, 6.0, 6.0, rng);
  const Graph skewed = gen::chung_lu_power_law(400, 2.2, 6.0, rng);
  auto max_degree = [](const Graph& g) {
    std::size_t m = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) m = std::max(m, g.degree(v));
    return m;
  };
  EXPECT_GT(max_degree(skewed), max_degree(flat));
}

TEST(Generators, DenseRegularComplementRegime) {
  // d > (n-1)/2 goes through the complement construction and must still be
  // exactly d-regular and simple.
  Rng rng(11);
  for (const auto& [n, d] :
       {std::make_pair(30, 29), std::make_pair(24, 17),
        std::make_pair(16, 9)}) {
    const Graph g = gen::random_regular(n, d, rng);
    EXPECT_EQ(g.num_nodes(), static_cast<std::size_t>(n));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g.degree(v), static_cast<std::size_t>(d))
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(Generators, DenseBiregularComplementRegime) {
  Rng rng(12);
  const BipartiteGraph b = gen::random_biregular(48, 512, 480, rng);
  EXPECT_EQ(b.min_left_degree(), 480u);
  EXPECT_EQ(b.max_left_degree(), 480u);
  // Right degrees balanced within 1 around 48*480/512 = 45.
  EXPECT_GE(b.min_right_degree(), 44u);
  EXPECT_LE(b.rank(), 46u);
}

TEST(Generators, BarabasiAlbertShape) {
  Rng rng(11);
  const std::size_t n = 400;
  const std::size_t m = 3;
  const Graph g = gen::barabasi_albert(n, m, rng);
  EXPECT_EQ(g.num_nodes(), n);
  // Clique on m+1 nodes plus m edges per later node.
  EXPECT_EQ(g.num_edges(), m * (m + 1) / 2 + (n - m - 1) * m);
  EXPECT_GE(g.min_degree(), m);
  // Preferential attachment concentrates degree on early nodes: the hub must
  // far exceed the attachment parameter.
  EXPECT_GT(g.max_degree(), 4 * m);
  // Simple graph: no duplicate edges.
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.u, e.v);
    EXPECT_TRUE(seen.emplace(std::min(e.u, e.v), std::max(e.u, e.v)).second);
  }
}

TEST(Generators, BarabasiAlbertRejectsBadParams) {
  Rng rng(12);
  EXPECT_THROW(gen::barabasi_albert(10, 0, rng), ds::CheckError);
  EXPECT_THROW(gen::barabasi_albert(5, 5, rng), ds::CheckError);
}

TEST(Generators, RandomGeometricMatchesBruteForce) {
  Rng rng(13);
  const double radius = 0.15;
  const Graph g = gen::random_geometric_2d(150, radius, rng);
  EXPECT_EQ(g.num_nodes(), 150u);
  // Regenerate the identical points from an identical stream and check the
  // edge set against the O(n^2) definition — validates the grid bucketing.
  Rng replay(13);
  std::vector<double> x(150);
  std::vector<double> y(150);
  for (std::size_t v = 0; v < 150; ++v) {
    x[v] = replay.next_double();
    y[v] = replay.next_double();
  }
  std::size_t expected_edges = 0;
  for (NodeId u = 0; u + 1 < 150u; ++u) {
    for (NodeId v = u + 1; v < 150u; ++v) {
      const double dx = x[u] - x[v];
      const double dy = y[u] - y[v];
      if (dx * dx + dy * dy <= radius * radius) {
        ++expected_edges;
        EXPECT_TRUE(g.has_edge(u, v)) << u << "," << v;
      }
    }
  }
  EXPECT_EQ(g.num_edges(), expected_edges);
}

TEST(Generators, RandomGeometricExtremes) {
  Rng rng(14);
  // Radius covering the whole square yields the complete graph.
  EXPECT_EQ(gen::random_geometric_2d(25, 1.5, rng).num_edges(), 300u);
  EXPECT_THROW(gen::random_geometric_2d(10, 0.0, rng), ds::CheckError);
}

TEST(InsituGenerator, FullImageEqualsAddEdgeOverTheShard) {
  // generate_full builds a CSR image in one counting pass; the digest
  // contract needs it to be exactly the Graph that add_edge builds over
  // shard(0, n) in order: same edge list, same row order on every node.
  const std::map<std::string, std::string> small = {
      {"torus", "torus:w=7,h=5"},
      {"gnp", "gnp:n=120,deg=6"},
      {"gnm", "gnm:n=120,deg=6"},
      {"ba", "ba:n=120,d=3"},
      {"rgg", "rgg:n=120,deg=7"},
      {"biregular", "biregular:nu=40,nv=25,delta=4"},
      {"kronecker", "kronecker:scale=7,deg=5"},
  };
  for (const std::string& family : DistributedGenerator::families()) {
    ASSERT_TRUE(small.count(family)) << "no small instance for " << family;
    const DistributedGenerator dg(GenSpec::parse(small.at(family)), 21);
    const Graph image = dg.generate_full();
    EXPECT_TRUE(image.is_mapped()) << family;
    Graph built(dg.num_nodes());
    for (const Edge& e : dg.shard(0, static_cast<NodeId>(dg.num_nodes()))) {
      built.add_edge(e.u, e.v);
    }
    ASSERT_EQ(image.num_nodes(), built.num_nodes()) << family;
    ASSERT_EQ(image.num_edges(), built.num_edges()) << family;
    EXPECT_GT(image.num_edges(), 0u) << family;
    EXPECT_TRUE(std::equal(image.edges().begin(), image.edges().end(),
                           built.edges().begin()))
        << family;
    for (NodeId v = 0; v < image.num_nodes(); ++v) {
      const NeighborView a = image.neighbors(v);
      const NeighborView b = built.neighbors(v);
      ASSERT_EQ(a.size(), b.size()) << family << " v=" << v;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << family << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace ds::graph
