// Tests for the edge splitting / edge coloring extension module (the
// Section 1.1 edge-analogue pipeline).

#include <gtest/gtest.h>

#include <tuple>

#include "edgecolor/edge_coloring.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::edgecolor {
namespace {

TEST(EdgeSplit, DiscrepancyAtMostThreeEverywhere) {
  Rng rng(1);
  const auto g = graph::gen::random_regular(100, 9, rng);
  local::CostMeter meter;
  const EdgeSplit is_red = edge_split(g, 0.1, &meter);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    long long balance = 0;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const graph::Edge& ed = g.edges()[e];
      if (ed.u != v && ed.v != v) continue;
      balance += is_red[e] ? 1 : -1;
    }
    EXPECT_LE(std::abs(balance), 3) << "node " << v;
  }
  EXPECT_GT(meter.breakdown().at("degree-split"), 0.0);
}

TEST(EdgeSplit, DiscrepancySweepAcrossDegreesAndSeeds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (std::size_t d : {3, 6, 9, 16, 31}) {
      const auto g = graph::gen::random_regular(80, d, rng);
      const EdgeSplit is_red = edge_split(g, 0.1, nullptr);
      std::vector<long long> balance(g.num_nodes(), 0);
      for (std::size_t e = 0; e < g.num_edges(); ++e) {
        const graph::Edge& ed = g.edges()[e];
        balance[ed.u] += is_red[e] ? 1 : -1;
        balance[ed.v] += is_red[e] ? 1 : -1;
      }
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_LE(std::abs(balance[v]), 3)
            << "seed " << seed << " d " << d << " node " << v;
      }
    }
  }
}

TEST(EdgeSplit, VerifierWindows) {
  const graph::Graph g(3, {{0, 1}, {0, 2}});
  // Node 0 has degree 2; eps=0: cap = 1 per color.
  EXPECT_TRUE(is_edge_split(g, {true, false}, 0.0));
  EXPECT_FALSE(is_edge_split(g, {true, true}, 0.0));
  // With eps = 0.5 the cap is 2: anything goes.
  EXPECT_TRUE(is_edge_split(g, {true, true}, 0.5));
  // Degree threshold relaxes.
  EXPECT_TRUE(is_edge_split(g, {true, true}, 0.0, 3));
}

TEST(EdgeSplit, EulerSplitIsAlwaysAValidSplit) {
  Rng rng(2);
  for (std::size_t d : {4, 7, 16}) {
    const auto g = graph::gen::random_regular(60, d, rng);
    const EdgeSplit is_red = edge_split(g, 0.1, nullptr);
    EXPECT_TRUE(is_edge_split(g, is_red, 0.1)) << "d=" << d;
  }
}

TEST(EdgeColoring, VerifierCatchesConflicts) {
  const graph::Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 0}));
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, 1}));
}

class EdgeColoringSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(EdgeColoringSweep, ProperWithBoundedPalette) {
  const auto [n, d] = GetParam();
  Rng rng(n * d);
  const auto g = graph::gen::random_regular(n, d, rng);
  local::CostMeter meter;
  const auto result = edge_coloring_via_splitting(g, 4, &meter);
  EXPECT_TRUE(is_proper_edge_coloring(g, result.colors));
  EXPECT_LE(result.max_class_degree, 4u);
  // Total palette <= 2Δ(1+o(1)): generously, 3Δ at these sizes.
  EXPECT_LE(result.num_colors, static_cast<std::uint32_t>(3 * d));
}

INSTANTIATE_TEST_SUITE_P(Grid, EdgeColoringSweep,
                         ::testing::Values(std::make_tuple(64, 8),
                                           std::make_tuple(128, 16),
                                           std::make_tuple(128, 32),
                                           std::make_tuple(96, 48)));

TEST(EdgeColoring, NoSplittingNeededAtLowDegree) {
  Rng rng(3);
  const auto g = graph::gen::cycle(12);
  const auto result = edge_coloring_via_splitting(g, 4, nullptr);
  EXPECT_EQ(result.levels, 0u);
  EXPECT_LE(result.num_colors, 3u);  // 2d-1 with d = 2
  EXPECT_TRUE(is_proper_edge_coloring(g, result.colors));
}

TEST(EdgeColoring, HandlesEmptyAndEdgelessGraphs) {
  graph::Graph g(5);
  const auto result = edge_coloring_via_splitting(g, 4, nullptr);
  EXPECT_EQ(result.num_colors, 0u);
  EXPECT_TRUE(result.colors.empty());
}

TEST(EdgeColoring, ClassesPartitionTheEdges) {
  Rng rng(4);
  const auto g = graph::gen::random_regular(80, 12, rng);
  const auto result = edge_coloring_via_splitting(g, 3, nullptr);
  // Every edge received a color in range.
  for (std::uint32_t c : result.colors) {
    EXPECT_LT(c, result.num_colors);
  }
  EXPECT_GE(result.num_classes, 2u);
}

}  // namespace
}  // namespace ds::edgecolor
