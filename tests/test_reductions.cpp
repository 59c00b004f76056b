// Tests for the Section 1.2/2.5/4 reductions: graph doubling, the Figure 1
// sinkless reduction, uniform splitting, recursive coloring, and MIS.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "coloring/reduce.hpp"
#include "coloring/verify.hpp"
#include "orient/sinkless.hpp"
#include "reductions/coloring_via_splitting.hpp"
#include "reductions/graph_to_bipartite.hpp"
#include "reductions/mis_via_splitting.hpp"
#include "reductions/sinkless.hpp"
#include "reductions/uniform_splitting.hpp"
#include "splitting/solver.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::reductions {
namespace {

TEST(GraphToBipartite, DoubledShape) {
  Rng rng(1);
  const auto g = graph::gen::random_regular(20, 4, rng);
  const auto b = graph_to_bipartite(g);
  EXPECT_EQ(b.num_left(), g.num_nodes());
  EXPECT_EQ(b.num_right(), g.num_nodes());
  EXPECT_EQ(b.num_edges(), 2 * g.num_edges());
  // δ_B = δ_G and r_B = Δ_G.
  EXPECT_EQ(b.min_left_degree(), g.min_degree());
  EXPECT_EQ(b.rank(), g.max_degree());
}

TEST(GraphToBipartite, WeakSplittingTransfersToNodeColoring) {
  Rng rng(2);
  const auto g = graph::gen::random_regular(64, 16, rng);
  const auto b = graph_to_bipartite(g);
  splitting::SolverOptions options;
  options.deterministic = true;
  const auto result = splitting::solve_weak_splitting(b, options, rng);
  // Right node i of b is node i of g: the weak splitting IS a node coloring
  // where every node sees both colors.
  EXPECT_TRUE(is_graph_weak_splitting(g, result.colors));
}

TEST(SinklessInstance, MajorityConstructionShape) {
  Rng rng(3);
  const auto g = graph::gen::random_regular(60, 6, rng);
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  const auto b = build_sinkless_instance(g, ids);
  EXPECT_EQ(b.rank(), 2u);
  EXPECT_GE(b.min_left_degree(), 3u);  // >= ceil(6/2)
  EXPECT_LE(b.max_left_degree(), 6u);
}

TEST(SinklessInstance, OrientationDecoding) {
  const graph::Graph g(2, {{0, 1}});
  std::vector<std::uint64_t> ids{0, 1};
  // Red: toward larger id (node 1). Blue: toward smaller (node 0).
  auto toward_v = orientation_from_splitting(
      g, {splitting::Color::kRed}, ids);
  EXPECT_TRUE(toward_v[0]);
  toward_v = orientation_from_splitting(g, {splitting::Color::kBlue}, ids);
  EXPECT_FALSE(toward_v[0]);
}

class Figure1Sweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Figure1Sweep, EndToEndSinkless) {
  const std::size_t d = GetParam();
  Rng rng(100 + d);
  const auto g = graph::gen::random_regular(120, d, rng);
  local::CostMeter meter;
  std::string algo;
  const auto orientation = sinkless_via_weak_splitting(g, rng, &meter, &algo);
  EXPECT_TRUE(orient::is_sinkless(g, orientation, 1));
  EXPECT_FALSE(algo.empty());
}

INSTANTIATE_TEST_SUITE_P(DegreeGrid, Figure1Sweep,
                         ::testing::Values(5, 6, 8, 12, 24));

TEST(Figure1, RejectsLowDegree) {
  Rng rng(4);
  const auto g = graph::gen::random_regular(30, 4, rng);
  EXPECT_THROW(sinkless_via_weak_splitting(g, rng), ds::CheckError);
}

TEST(UniformSplitting, VerifierWindows) {
  const graph::Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  // Node 0 has degree 4; eps=0.2 window: [floor(1.2), ceil(2.8)] = [1,3].
  EXPECT_TRUE(is_uniform_splitting(g, {false, true, true, false, false},
                                   0.2, 4));
  EXPECT_FALSE(is_uniform_splitting(g, {false, false, false, false, false},
                                    0.2, 4));
  EXPECT_FALSE(is_uniform_splitting(g, {false, true, true, true, true},
                                    0.2, 4));
}

TEST(UniformSplitting, DerandomizedInTheoremRegime) {
  Rng rng(5);
  // Potential ~ 2n*exp(-2 eps^2 d): d = 128 at eps = 0.2 gives ~0.02 < 1
  // (d = 64 sits just outside at ~1.3).
  const auto g = graph::gen::random_regular(256, 128, rng);
  local::CostMeter meter;
  const auto result = uniform_split(g, 0.2, 16, rng, &meter);
  EXPECT_TRUE(is_uniform_splitting(g, result.is_red, 0.2, 16));
  EXPECT_TRUE(result.derandomized);
  EXPECT_LT(result.initial_potential, 1.0);
}

TEST(UniformSplitting, LocalSearchFallbackOutsideRegime) {
  Rng rng(6);
  // Degree 16 with eps 0.1: windows are tight; potential typically >= 1, so
  // the fallback path must still deliver a valid split.
  const auto g = graph::gen::random_regular(64, 16, rng);
  const auto result = uniform_split(g, 0.1, 16, rng, nullptr);
  EXPECT_TRUE(is_uniform_splitting(g, result.is_red, 0.1, 16));
}

TEST(UniformSplitting, UnconstrainedGraphTrivial) {
  graph::Graph g(10);  // no edges
  Rng rng(7);
  const auto result = uniform_split(g, 0.2, 1, rng, nullptr);
  EXPECT_EQ(result.is_red.size(), 10u);
}

TEST(ColoringViaSplitting, PaletteNearDelta) {
  Rng rng(8);
  const auto g = graph::gen::random_regular(256, 64, rng);
  RecursiveColoringConfig config;
  config.eps = 0.1;
  config.target_degree = 16;
  local::CostMeter meter;
  const auto result = coloring_via_splitting(g, config, rng, &meter);
  EXPECT_TRUE(coloring::is_proper_coloring(g, result.colors));
  EXPECT_GE(result.levels, 1u);
  EXPECT_LE(result.max_part_degree, config.target_degree);
  // (1+o(1))Δ at laptop scale: within 2.5x of Δ, and always >= Δ+1-ish.
  EXPECT_LT(result.num_colors, static_cast<std::uint32_t>(2.5 * 64));
}

TEST(ColoringViaSplitting, LowDegreeGraphSkipsSplitting) {
  Rng rng(9);
  const auto g = graph::gen::random_regular(64, 8, rng);
  RecursiveColoringConfig config;
  config.target_degree = 16;
  const auto result = coloring_via_splitting(g, config, rng, nullptr);
  EXPECT_EQ(result.levels, 0u);
  EXPECT_LE(result.num_colors, 9u);
  EXPECT_TRUE(coloring::is_proper_coloring(g, result.colors));
}

class MisSweep : public ::testing::TestWithParam<double> {};

TEST_P(MisSweep, ValidOnGnp) {
  const double p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p * 1000));
  const auto g = graph::gen::gnp(200, p, rng);
  MisConfig config;
  local::CostMeter meter;
  const auto result = mis_via_splitting(g, config, rng, &meter);
  EXPECT_TRUE(coloring::is_mis(g, result.in_mis));
}

INSTANTIATE_TEST_SUITE_P(DensityGrid, MisSweep,
                         ::testing::Values(0.02, 0.05, 0.15, 0.4));

TEST(Mis, WorksOnStructuredGraphs) {
  Rng rng(10);
  MisConfig config;
  for (const auto& g :
       {graph::gen::cycle(31), graph::gen::complete(20),
        graph::gen::hypercube(6), graph::gen::random_tree(100, rng)}) {
    const auto result = mis_via_splitting(g, config, rng, nullptr);
    EXPECT_TRUE(coloring::is_mis(g, result.in_mis));
  }
}

TEST(Mis, HighDegreeUsesSplittingCalls) {
  Rng rng(11);
  const auto g = graph::gen::random_regular(256, 128, rng);
  MisConfig config;
  const auto result = mis_via_splitting(g, config, rng, nullptr);
  EXPECT_TRUE(coloring::is_mis(g, result.in_mis));
  EXPECT_GE(result.phases, 1u);
  EXPECT_GE(result.splitting_calls, 1u);
}

TEST(Mis, EmptyGraphEdgeCase) {
  graph::Graph g(5);
  Rng rng(12);
  MisConfig config;
  const auto result = mis_via_splitting(g, config, rng, nullptr);
  // With no edges every node is in the MIS.
  for (bool in : result.in_mis) EXPECT_TRUE(in);
}

}  // namespace
}  // namespace ds::reductions
