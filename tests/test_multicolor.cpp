// Tests for Section 3: multicolor splitting definitions, verifiers,
// randomized/derandomized algorithms, and both completeness reductions.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "multicolor/multicolor_splitting.hpp"
#include "multicolor/random_algorithms.hpp"
#include "multicolor/reductions.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::multicolor {
namespace {

TEST(Verifiers, DistinctColorsAndLoads) {
  const graph::BipartiteGraph b(1, 4, {{0, 0}, {0, 1}, {0, 2}, {0, 3}});
  const ColorAssignment colors{0, 0, 1, 2};
  EXPECT_EQ(distinct_colors_seen(b, colors, 0), 3u);
  EXPECT_EQ(max_color_load(b, colors, 0), 2u);
}

TEST(Verifiers, MulticolorSplittingCaps) {
  const graph::BipartiteGraph b(1, 4, {{0, 0}, {0, 1}, {0, 2}, {0, 3}});
  // lambda = 0.5, deg = 4: cap = 2 per color.
  EXPECT_TRUE(is_multicolor_splitting(b, {0, 0, 1, 1}, 2, 0.5));
  EXPECT_FALSE(is_multicolor_splitting(b, {0, 0, 0, 1}, 2, 0.5));
  EXPECT_NE(check_multicolor_splitting(b, {0, 0, 0, 1}, 2, 0.5).find("cap"),
            std::string::npos);
  // Out-of-palette colors rejected.
  EXPECT_FALSE(is_multicolor_splitting(b, {0, 0, 5, 1}, 2, 0.9));
  // Degree threshold relaxes.
  EXPECT_TRUE(is_multicolor_splitting(b, {0, 0, 0, 1}, 2, 0.5, 5));
}

TEST(Verifiers, WeakMulticolor) {
  const graph::BipartiteGraph b(1, 4, {{0, 0}, {0, 1}, {0, 2}, {0, 3}});
  EXPECT_TRUE(is_weak_multicolor_splitting(b, {0, 1, 2, 0}, 4, 3, 0));
  EXPECT_FALSE(is_weak_multicolor_splitting(b, {0, 1, 0, 1}, 4, 3, 0));
  EXPECT_TRUE(is_weak_multicolor_splitting(b, {0, 1, 0, 1}, 4, 3, 5));
}

TEST(Params, StandardParameterFormulas) {
  const auto p = weak_multicolor_params(1024);
  EXPECT_EQ(p.required_colors, 20u);  // 2·log2(1024)
  EXPECT_EQ(p.num_colors, 20u);
  // 2·(10+1)·ln(1024) = 22·6.93 ≈ 152.5 -> 153.
  EXPECT_EQ(p.degree_threshold, 153u);
}

TEST(RandomUniform, ZeroRoundBaselineShape) {
  Rng rng(1);
  const auto b = graph::gen::random_left_regular(32, 128, 64, rng);
  const ColorAssignment colors = random_uniform_colors(b, 8, rng);
  for (std::uint32_t c : colors) EXPECT_LT(c, 8u);
  // With degree 64 and 8 colors, each u should see most colors.
  std::size_t total_seen = 0;
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    total_seen += distinct_colors_seen(b, colors, u);
  }
  EXPECT_GT(total_seen, 32u * 6u);
}

TEST(DerandWeakMulticolor, CoversAllColorsInTheoremRegime) {
  Rng rng(2);
  const std::size_t nu = 48;
  const std::size_t nv = 256;
  const auto params = weak_multicolor_params(nu + nv);
  // Twice the threshold degree puts the union-bound potential safely
  // below 1 (the threshold itself is the asymptotic edge of the regime).
  const auto b = graph::gen::random_left_regular(
      nu, nv, 2 * params.degree_threshold, rng);
  local::CostMeter meter;
  MulticolorDerandInfo info;
  const ColorAssignment colors =
      derand_weak_multicolor(b, params.num_colors, rng, &meter, &info);
  EXPECT_TRUE(is_weak_multicolor_splitting(b, colors, params.num_colors,
                                           params.required_colors,
                                           params.degree_threshold));
  EXPECT_LT(info.initial_potential, 1.0);
  EXPECT_NEAR(info.final_potential, 0.0, 1e-12);
}

TEST(ClPalette, MatchesTheoremChoice) {
  EXPECT_EQ(cl_palette(16, 0.7), 3u);   // lambda >= 2/3 -> 3 colors
  EXPECT_EQ(cl_palette(16, 0.5), 6u);   // ceil(3/0.5)
  EXPECT_EQ(cl_palette(16, 0.25), 12u);
  EXPECT_EQ(cl_palette(4, 0.1), 4u);    // capped at C
  EXPECT_EQ(cl_palette(2, 0.95), 2u);
}

TEST(DerandClMulticolor, RespectsLoadCaps) {
  Rng rng(3);
  const auto b = graph::gen::random_left_regular(40, 160, 80, rng);
  local::CostMeter meter;
  MulticolorDerandInfo info;
  const double lambda = 0.4;
  const std::uint32_t C = 16;
  const ColorAssignment colors =
      derand_cl_multicolor(b, C, lambda, rng, &meter, &info);
  EXPECT_TRUE(is_multicolor_splitting(b, colors, cl_palette(C, lambda),
                                      lambda));
  EXPECT_LT(info.initial_potential, 1.0);
}

TEST(Theorem32Reduction, SolvesWeakSplittingThroughMulticolor) {
  Rng rng(4);
  const std::size_t nu = 48;
  const std::size_t nv = 384;
  const auto params = weak_multicolor_params(nu + nv);
  const auto b = graph::gen::random_left_regular(
      nu, nv, params.degree_threshold + 8, rng);
  local::CostMeter meter;
  WeakViaMulticolorInfo info;
  const splitting::Coloring colors =
      weak_splitting_via_multicolor(b, rng, &meter, &info);
  EXPECT_TRUE(splitting::is_weak_splitting(b, colors));
  EXPECT_EQ(info.multicolor_palette, params.num_colors);
  EXPECT_EQ(info.pruned_degree, params.required_colors);
  EXPECT_LT(info.weak_potential, 1.0);
}

TEST(Theorem32Reduction, RejectsThinInstances) {
  Rng rng(5);
  const auto b = graph::gen::random_left_regular(16, 32, 8, rng);
  EXPECT_THROW(weak_splitting_via_multicolor(b, rng), ds::CheckError);
}

TEST(Theorem33Reduction, IteratedChainReachesTargetLoad) {
  Rng rng(6);
  const std::size_t nu = 48;
  const std::size_t nv = 256;
  const auto b = graph::gen::random_left_regular(nu, nv, 160, rng);
  local::CostMeter meter;
  const IteratedCLResult result =
      iterated_cl_multicolor(b, 16, 0.3, 2.0, rng, &meter);
  EXPECT_GE(result.iterations, 2u);
  EXPECT_GT(result.num_colors, 1u);
  // Heavy nodes see many colors (the weak multicolor target).
  EXPECT_TRUE(result.achieves_weak_multicolor);
  // The iterated load cap: max load is far below the degree.
  EXPECT_LT(result.max_load, 160u / 4u);
}

TEST(Theorem33Reduction, SingleShotWhenLambdaAlreadySmall) {
  Rng rng(7);
  const auto b = graph::gen::random_left_regular(32, 256, 128, rng);
  const double log_n = std::log2(static_cast<double>(b.num_nodes()));
  const double small_lambda = 1.0 / (4.0 * log_n);
  const IteratedCLResult result =
      iterated_cl_multicolor(b, 64, small_lambda, 2.0, rng, nullptr);
  EXPECT_EQ(result.iterations, 1u);
}

}  // namespace
}  // namespace ds::multicolor
