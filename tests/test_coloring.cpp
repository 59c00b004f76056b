// Tests for the coloring substrate: Linial reduction, greedy reduction,
// distance colorings, MIS-from-coloring, and the verifiers.

#include <gtest/gtest.h>

#include "coloring/distance_coloring.hpp"
#include "coloring/linial.hpp"
#include "coloring/reduce.hpp"
#include "coloring/verify.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "local/ids.hpp"
#include "support/check.hpp"

namespace ds::coloring {
namespace {

TEST(Linial, NextPrime) {
  EXPECT_EQ(next_prime(1), 2u);
  EXPECT_EQ(next_prime(2), 3u);
  EXPECT_EQ(next_prime(10), 11u);
  EXPECT_EQ(next_prime(13), 17u);
  EXPECT_EQ(next_prime(100), 101u);
}

TEST(Linial, StepShrinksPaletteAndStaysProper) {
  Rng rng(1);
  // One Linial step shrinks C colors to ~(Delta log_q C)^2, which is a
  // *reduction* only when the starting palette is large relative to
  // Delta^2 — start from distinct ids on 1024 nodes.
  const graph::Graph g = graph::gen::random_regular(1024, 4, rng);
  std::vector<std::uint32_t> colors(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) colors[v] = v;
  std::uint32_t new_colors = 0;
  local::CostMeter meter;
  const auto next = linial_step(g, colors, 1024, &new_colors, &meter);
  EXPECT_TRUE(is_proper_coloring(g, next));
  EXPECT_LT(new_colors, 1024u);
  EXPECT_EQ(meter.executed_rounds(), 1u);
  for (std::uint32_t c : next) EXPECT_LT(c, new_colors);
}

TEST(Linial, StepRequiresProperInput) {
  const graph::Graph g(2, {{0, 1}});
  std::uint32_t out = 0;
  EXPECT_THROW(linial_step(g, {5, 5}, 6, &out, nullptr), ds::CheckError);
}

TEST(Linial, FullReductionReachesSmallPalette) {
  Rng rng(2);
  const graph::Graph g = graph::gen::random_regular(256, 4, rng);
  Rng id_rng(3);
  const auto ids =
      local::assign_ids(g, local::IdStrategy::kRandomPermutation, id_rng);
  std::uint32_t num_colors = 0;
  local::CostMeter meter;
  const auto colors = linial_coloring(g, ids, &num_colors, &meter);
  EXPECT_TRUE(is_proper_coloring(g, colors));
  // O(Δ²·log²Δ)-ish: far below n, concretely below 400 for Δ=4.
  EXPECT_LT(num_colors, 400u);
  // log*-many steps: a handful.
  EXPECT_LE(meter.executed_rounds(), 8u);
}

TEST(Reduce, ReachesDeltaPlusOne) {
  Rng rng(4);
  const graph::Graph g = graph::gen::random_regular(128, 6, rng);
  Rng id_rng(5);
  const auto ids = local::assign_ids(g, local::IdStrategy::kSequential, id_rng);
  std::uint32_t num_colors = 0;
  local::CostMeter meter;
  const auto colors = delta_plus_one_coloring(g, ids, &num_colors, &meter);
  EXPECT_TRUE(is_proper_coloring(g, colors));
  EXPECT_EQ(num_colors, 7u);
  EXPECT_TRUE(check_proper_coloring(g, colors, num_colors).empty());
}

TEST(Reduce, CannotGoBelowDeltaPlusOne) {
  const graph::Graph g = graph::gen::complete(5);
  std::vector<std::uint32_t> colors{0, 1, 2, 3, 4};
  EXPECT_THROW(reduce_colors(g, colors, 5, 3, nullptr), ds::CheckError);
}

TEST(Reduce, MisFromColoringIsValid) {
  Rng rng(6);
  const graph::Graph g = graph::gen::gnp(80, 0.1, rng);
  Rng id_rng(7);
  const auto ids = local::assign_ids(g, local::IdStrategy::kSequential, id_rng);
  std::uint32_t num_colors = 0;
  const auto colors = delta_plus_one_coloring(g, ids, &num_colors, nullptr);
  const auto mis = mis_from_coloring(g, colors, num_colors, nullptr);
  EXPECT_TRUE(is_mis(g, mis));
}

TEST(Reduce, MisVerifierCatchesViolations) {
  const graph::Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(is_mis(g, {true, true, false}));   // not independent
  EXPECT_FALSE(is_mis(g, {false, false, false})); // not maximal
  EXPECT_TRUE(is_mis(g, {true, false, true}));
  EXPECT_TRUE(is_mis(g, {false, true, false}));
}

TEST(DistanceColoring, ProperOnPowerGraph) {
  Rng rng(8);
  const graph::Graph g = graph::gen::random_regular(60, 3, rng);
  Rng id_rng(9);
  const auto ids = local::assign_ids(g, local::IdStrategy::kSequential, id_rng);
  local::CostMeter meter;
  const auto pc = color_power(g, 2, ids, &meter);
  const graph::Graph g2 = graph::power(g, 2);
  EXPECT_TRUE(is_proper_coloring(g2, pc.colors));
  EXPECT_LE(pc.num_colors, g2.max_degree() + 1);
  EXPECT_GT(meter.breakdown().at("distance-coloring"), 0.0);
}

TEST(DistanceColoring, RadiusFourForHighGirthSchedules) {
  Rng rng(10);
  const graph::Graph base = graph::gen::cycle(20);
  Rng id_rng(11);
  const auto ids =
      local::assign_ids(base, local::IdStrategy::kSequential, id_rng);
  const auto pc = color_power(base, 4, ids, nullptr);
  EXPECT_TRUE(is_proper_coloring(graph::power(base, 4), pc.colors));
}

TEST(Verify, DetailedMessages) {
  const graph::Graph g(2, {{0, 1}});
  EXPECT_NE(check_proper_coloring(g, {1, 1}, 2), "");
  EXPECT_NE(check_proper_coloring(g, {0, 5}, 2), "");
  EXPECT_EQ(check_proper_coloring(g, {0, 1}, 2), "");
  EXPECT_EQ(palette_size({0, 3, 3, 7}), 3u);
}

}  // namespace
}  // namespace ds::coloring
