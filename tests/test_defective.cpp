// Tests for defective colorings via iterated uniform splitting (the
// footnote-2 relaxation and the divide step of Section 4.1).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "defective/defective_coloring.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace ds::defective {
namespace {

TEST(Verifier, ExactDefectBoundary) {
  // Triangle, all same color: every node has defect 2.
  const auto g = graph::gen::complete(3);
  const std::vector<std::uint32_t> mono{0, 0, 0};
  EXPECT_TRUE(is_defective_coloring(g, mono, 2));
  EXPECT_FALSE(is_defective_coloring(g, mono, 1));
  // Proper coloring has defect 0.
  EXPECT_TRUE(is_defective_coloring(g, {0, 1, 2}, 0));
}

TEST(Verifier, ProfileReportsPerColorDefects) {
  const graph::Graph g(4, {{0, 1}, {2, 3}});
  const std::vector<std::uint32_t> colors{0, 0, 1, 2};
  const auto profile = defect_profile(g, colors);
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile[0], 1u);  // 0-1 monochromatic
  EXPECT_EQ(profile[1], 0u);
  EXPECT_EQ(profile[2], 0u);
}

TEST(Ladder, ZeroLevelsIsTheTrivialColoring) {
  Rng rng(1);
  const auto g = graph::gen::random_regular(40, 6, rng);
  const auto result = defective_coloring(g, 0, 0.1, 0, rng);
  EXPECT_EQ(result.num_colors, 1u);
  EXPECT_EQ(result.max_defect, 6u);
}

class LadderSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LadderSweep, DefectHalvesPerLevel) {
  const auto [d, levels] = GetParam();
  Rng rng(d * 31 + levels);
  const auto g = graph::gen::random_regular(256, d, rng);
  const auto result = defective_coloring(g, levels, 0.1, 0, rng);
  EXPECT_EQ(result.num_colors, 1u << levels);
  // Defect <= d * ((1+2eps)/2)^levels plus additive slack per level.
  const double bound =
      static_cast<double>(d) * std::pow(0.6, static_cast<double>(levels)) +
      2.0 * static_cast<double>(levels) + 2.0;
  EXPECT_LE(static_cast<double>(result.max_defect), bound)
      << "d=" << d << " levels=" << levels;
  EXPECT_TRUE(is_defective_coloring(g, result.colors, result.max_defect));
}

INSTANTIATE_TEST_SUITE_P(DegreeByLevels, LadderSweep,
                         ::testing::Values(std::make_tuple(16, 1),
                                           std::make_tuple(16, 2),
                                           std::make_tuple(32, 3),
                                           std::make_tuple(64, 4),
                                           std::make_tuple(64, 2)));

TEST(Ladder, DegreeThresholdLeavesLowDegreeNodesUnconstrained) {
  // A star: the center is high degree, leaves are degree 1. With a degree
  // threshold above 1, leaf defects are unconstrained but the center's
  // same-color count must still drop.
  std::vector<graph::Edge> spokes;
  for (graph::NodeId leaf = 1; leaf < 33; ++leaf) spokes.push_back({0, leaf});
  const graph::Graph g(33, std::move(spokes));
  Rng rng(5);
  const auto result = defective_coloring(g, 1, 0.1, 2, rng);
  std::size_t center_same = 0;
  for (graph::NodeId leaf = 1; leaf < 33; ++leaf) {
    if (result.colors[leaf] == result.colors[0]) ++center_same;
  }
  EXPECT_LE(center_same, 20u);  // about half of 32, plus slack
}

TEST(Ladder, ChargesSplittingCosts) {
  Rng rng(6);
  const auto g = graph::gen::random_regular(128, 16, rng);
  local::CostMeter meter;
  defective_coloring(g, 2, 0.1, 0, rng, &meter);
  EXPECT_GT(meter.total_rounds(), 0.0);
}

TEST(Ladder, FootnoteTwoRelationDefectiveIsWeakerThanSplitting) {
  // Any valid uniform splitting induces a 2-coloring whose defect is at
  // most (1/2+eps)*d — i.e. splitting implies defective, not vice versa.
  Rng rng(7);
  const auto g = graph::gen::random_regular(200, 32, rng);
  const auto result = defective_coloring(g, 1, 0.1, 0, rng);
  EXPECT_TRUE(is_defective_coloring(
      g, result.colors,
      static_cast<std::size_t>(std::ceil(0.6 * 32) + 1)));
}

}  // namespace
}  // namespace ds::defective
