// Tests for network decompositions (Linial–Saks, ball carving) and the
// derandomization sweeps built on them.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "coloring/reduce.hpp"
#include "coloring/verify.hpp"
#include "graph/generators.hpp"
#include "netdecomp/decomposition.hpp"
#include "netdecomp/decomposition_program.hpp"
#include "netdecomp/derandomize.hpp"
#include "support/rng.hpp"

namespace ds::netdecomp {
namespace {

Decomposition trivial_singletons(const graph::Graph& g) {
  // Every node its own cluster, blocks = a proper coloring by node id parity
  // fails in general; use one block per cluster (valid, c = n).
  Decomposition d;
  d.cluster.resize(g.num_nodes());
  d.block.resize(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    d.cluster[v] = v;
    d.block[v] = v;
  }
  d.num_clusters = g.num_nodes();
  d.num_blocks = g.num_nodes();
  return d;
}

TEST(Verifier, AcceptsSingletonDecomposition) {
  Rng rng(1);
  const auto g = graph::gen::gnp(20, 0.2, rng);
  const auto d = trivial_singletons(g);
  EXPECT_TRUE(is_network_decomposition(g, d, 0, g.num_nodes()));
}

TEST(Verifier, RejectsAdjacentSameBlockClusters) {
  const graph::Graph g(2, {{0, 1}});
  Decomposition d;
  d.cluster = {0, 1};
  d.block = {0, 0};  // adjacent clusters, same block
  d.num_clusters = 2;
  d.num_blocks = 1;
  EXPECT_FALSE(is_network_decomposition(g, d, 1, 1));
  d.block = {0, 1};
  d.num_blocks = 2;
  EXPECT_TRUE(is_network_decomposition(g, d, 1, 2));
}

TEST(Verifier, RejectsOversizedDiameter) {
  // A path of length 3 in one cluster.
  const graph::Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  Decomposition d;
  d.cluster = {0, 0, 0, 0};
  d.block = {0};
  d.num_clusters = 1;
  d.num_blocks = 1;
  EXPECT_FALSE(is_network_decomposition(g, d, 2, 1));
  EXPECT_TRUE(is_network_decomposition(g, d, 3, 1));
}

class DecompositionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(DecompositionSweep, LinialSaksShapesAreLogarithmic) {
  const auto [n, p] = GetParam();
  Rng rng(n);
  const auto g = graph::gen::gnp(n, p, rng);
  local::CostMeter meter;
  const auto d = linial_saks(g, 13, &meter);
  const auto log_budget =
      4 * static_cast<std::size_t>(std::ceil(std::log2(n + 1))) + 8;
  EXPECT_LE(d.num_blocks, 4 * log_budget);
  EXPECT_LE(d.max_weak_diameter, 4 * log_budget);
  EXPECT_GT(meter.charged_rounds(), 0.0);
}

TEST_P(DecompositionSweep, BallCarvingBlocksAtMostLogN) {
  const auto [n, p] = GetParam();
  Rng rng(n + 1);
  const auto g = graph::gen::gnp(n, p, rng);
  const auto d = ball_carving(g);
  EXPECT_LE(d.num_blocks,
            static_cast<std::size_t>(std::ceil(std::log2(n + 1))) + 1);
}

INSTANTIATE_TEST_SUITE_P(Gnp, DecompositionSweep,
                         ::testing::Values(std::make_tuple(40, 0.1),
                                           std::make_tuple(100, 0.05),
                                           std::make_tuple(200, 0.02),
                                           std::make_tuple(300, 0.01)));

TEST(BallCarving, ClustersAreConnectedInducedSubgraphs) {
  Rng rng(3);
  const auto g = graph::gen::random_regular(150, 4, rng);
  const auto d = ball_carving(g);
  // Check connectivity of each cluster in its induced subgraph by
  // union-find over intra-cluster edges.
  std::vector<graph::NodeId> parent(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) parent[v] = v;
  std::function<graph::NodeId(graph::NodeId)> find =
      [&](graph::NodeId v) -> graph::NodeId {
    return parent[v] == v ? v : parent[v] = find(parent[v]);
  };
  for (const graph::Edge& e : g.edges()) {
    if (d.cluster[e.u] == d.cluster[e.v]) parent[find(e.u)] = find(e.v);
  }
  std::vector<graph::NodeId> root(d.num_clusters, UINT32_MAX);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& r = root[d.cluster[v]];
    if (r == UINT32_MAX) {
      r = find(v);
    } else {
      EXPECT_EQ(r, find(v)) << "cluster " << d.cluster[v] << " disconnected";
    }
  }
}

TEST(LinialSaks, CoversDisconnectedGraphs) {
  // Two components: a 5-cycle and an edge + isolated.
  const graph::Graph g(10,
                       {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 6}});
  const auto d = linial_saks(g, 21);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(d.cluster[v], d.num_clusters);
  }
}

TEST(Derandomize, MisMatchesVerifierOnBothDecompositions) {
  Rng rng(6);
  const auto g = graph::gen::gnp(120, 0.06, rng);
  for (const auto& d : {linial_saks(g, 3), ball_carving(g)}) {
    local::CostMeter meter;
    const auto in_mis = mis_via_decomposition(g, d, &meter);
    EXPECT_TRUE(coloring::is_mis(g, in_mis));
    EXPECT_GT(meter.charged_rounds(), 0.0);
  }
}

TEST(Derandomize, ColoringUsesAtMostDeltaPlusOneColors) {
  Rng rng(7);
  const auto g = graph::gen::random_regular(100, 6, rng);
  const auto d = ball_carving(g);
  std::uint32_t palette = 0;
  const auto colors = coloring_via_decomposition(g, d, &palette);
  EXPECT_TRUE(coloring::is_proper_coloring(g, colors));
  EXPECT_LE(palette, 7u);
}

TEST(Derandomize, DeterministicAcrossRepeats) {
  Rng rng(8);
  const auto g = graph::gen::gnp(80, 0.08, rng);
  const auto d = ball_carving(g);
  EXPECT_EQ(mis_via_decomposition(g, d), mis_via_decomposition(g, d));
  EXPECT_EQ(coloring_via_decomposition(g, d),
            coloring_via_decomposition(g, d));
}

TEST(Derandomize, ChargedCostIsBlocksTimesDiameter) {
  Rng rng(9);
  const auto g = graph::gen::gnp(60, 0.1, rng);
  const auto d = ball_carving(g);
  local::CostMeter meter;
  mis_via_decomposition(g, d, &meter);
  EXPECT_DOUBLE_EQ(meter.charged_rounds(),
                   static_cast<double>(d.num_blocks) *
                       static_cast<double>(d.max_weak_diameter + 2));
}

// ---- Message-passing Linial–Saks program (registry port) -----------------

TEST(Program, DecomposesAssortedInstances) {
  Rng rng(10);
  for (const graph::Graph& g :
       {graph::gen::gnp(80, 0.08, rng), graph::gen::torus(8, 7),
        graph::gen::barabasi_albert(70, 3, rng)}) {
    const auto outcome = decomposition_program(g, 5);
    const Decomposition& d = outcome.decomposition;
    EXPECT_TRUE(is_network_decomposition(g, d, 4 * outcome.radius_cap,
                                         d.num_blocks));
    // The block budget of the sequential construction holds here too.
    EXPECT_LE(d.num_blocks, 4 * outcome.radius_cap + 8);
    EXPECT_EQ(outcome.executed_rounds % outcome.radius_cap, 0u);
  }
}

TEST(Program, HonorsExplicitRadiusCap) {
  Rng rng(11);
  const auto g = graph::gen::gnp(50, 0.12, rng);
  const auto outcome = decomposition_program(g, 3, /*radius_cap=*/5);
  EXPECT_EQ(outcome.radius_cap, 5u);
  EXPECT_TRUE(is_network_decomposition(g, outcome.decomposition, 20,
                                       outcome.decomposition.num_blocks));
}

TEST(Program, DegenerateInstances) {
  const auto empty = decomposition_program(graph::Graph(0), 1);
  EXPECT_EQ(empty.decomposition.num_clusters, 0u);
  EXPECT_EQ(empty.executed_rounds, 0u);
  // Isolated nodes: every node eventually clusters alone.
  const auto isolated = decomposition_program(graph::Graph(4), 1);
  EXPECT_EQ(isolated.decomposition.num_clusters, 4u);
  EXPECT_EQ(isolated.decomposition.max_weak_diameter, 0u);
}

TEST(Program, DeterministicAcrossRepeats) {
  Rng rng(12);
  const auto g = graph::gen::gnp(60, 0.1, rng);
  const auto a = decomposition_program(g, 7);
  const auto b = decomposition_program(g, 7);
  EXPECT_EQ(a.decomposition.cluster, b.decomposition.cluster);
  EXPECT_EQ(a.decomposition.block, b.decomposition.block);
  EXPECT_EQ(a.executed_rounds, b.executed_rounds);
  // A different seed explores different radii (overwhelmingly likely).
  const auto c = decomposition_program(g, 8);
  EXPECT_NE(a.decomposition.cluster, c.decomposition.cluster);
}

}  // namespace
}  // namespace ds::netdecomp
