// Tests for the MIS module: Luby's randomized MIS on the LOCAL simulator
// and the sequential greedy baselines.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "coloring/reduce.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/mis.hpp"
#include "support/rng.hpp"

namespace ds::mis {
namespace {

TEST(Luby, ValidOnEmptyAndSingleton) {
  graph::Graph empty(0);
  EXPECT_TRUE(luby(empty, 1).in_mis.empty());
  graph::Graph one(1);
  const auto outcome = luby(one, 1);
  EXPECT_TRUE(outcome.in_mis[0]);
}

TEST(Luby, IsolatedNodesAllJoin) {
  graph::Graph g(7);  // no edges
  const auto outcome = luby(g, 3);
  for (graph::NodeId v = 0; v < 7; ++v) EXPECT_TRUE(outcome.in_mis[v]);
  EXPECT_LE(outcome.phases, 1u);
}

TEST(Luby, CompleteGraphPicksExactlyOne) {
  const auto g = graph::gen::complete(25);
  const auto outcome = luby(g, 5);
  std::size_t count = 0;
  for (bool b : outcome.in_mis) count += b ? 1 : 0;
  EXPECT_EQ(count, 1u);
}

class LubySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(LubySweep, ProducesValidMisOnGnp) {
  const auto [n, p] = GetParam();
  Rng rng(n);
  const auto g = graph::gen::gnp(n, p, rng);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    local::CostMeter meter;
    const auto outcome = luby(g, seed, &meter);
    EXPECT_TRUE(coloring::is_mis(g, outcome.in_mis));
    EXPECT_EQ(meter.executed_rounds(), outcome.executed_rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(Gnp, LubySweep,
                         ::testing::Values(std::make_tuple(50, 0.05),
                                           std::make_tuple(100, 0.1),
                                           std::make_tuple(200, 0.02),
                                           std::make_tuple(300, 0.3)));

TEST(Luby, PhasesAreLogarithmicInPractice) {
  // O(log n) w.h.p.; allow a generous constant.
  for (std::size_t n : {64, 256, 1024}) {
    Rng rng(n + 1);
    const auto g = graph::gen::random_regular(n, 8, rng);
    const auto outcome = luby(g, 7);
    EXPECT_LE(outcome.phases,
              8 * static_cast<std::size_t>(std::log2(n)) + 8)
        << "n=" << n;
  }
}

TEST(Luby, DifferentSeedsUsuallyDiffer) {
  Rng rng(4);
  const auto g = graph::gen::random_regular(128, 6, rng);
  const auto a = luby(g, 1).in_mis;
  const auto b = luby(g, 2).in_mis;
  EXPECT_NE(a, b);  // astronomically unlikely to coincide
}

TEST(Greedy, ByOrderRespectsOrder) {
  // Path 0-1-2: processing 1 first yields {1}; processing ends first {0,2}.
  const graph::Graph g(3, {{0, 1}, {1, 2}});
  const auto mid_first = greedy_by_order(g, {1, 0, 2});
  EXPECT_TRUE(mid_first[1]);
  EXPECT_FALSE(mid_first[0]);
  const auto ends_first = greedy_by_order(g, {0, 2, 1});
  EXPECT_TRUE(ends_first[0]);
  EXPECT_TRUE(ends_first[2]);
  EXPECT_FALSE(ends_first[1]);
}

TEST(Greedy, ByIdsMatchesManualOrder) {
  const graph::Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  // ids reverse the natural order.
  const auto by_ids = greedy_by_ids(g, {40, 30, 20, 10});
  const auto by_order = greedy_by_order(g, {3, 2, 1, 0});
  EXPECT_EQ(by_ids, by_order);
}

TEST(Greedy, EveryPermutationOfSmallGraphIsValid) {
  Rng rng(9);
  const auto g = graph::gen::gnp(9, 0.3, rng);
  std::vector<std::size_t> order(9);
  std::iota(order.begin(), order.end(), 0);
  for (int trial = 0; trial < 50; ++trial) {
    rng.shuffle(order);
    EXPECT_TRUE(coloring::is_mis(g, greedy_by_order(g, order)));
  }
}

TEST(Greedy, SizeAtLeastNOverDeltaPlusOne) {
  // Lemma 4.3 of the paper: any MIS has size >= n/(Δ+1).
  Rng rng(11);
  const auto g = graph::gen::random_regular(120, 5, rng);
  const auto in_mis = greedy_by_ids(g, std::vector<std::uint64_t>(
                                           [&] {
                                             std::vector<std::uint64_t> v(120);
                                             std::iota(v.begin(), v.end(), 0);
                                             return v;
                                           }()));
  std::size_t size = 0;
  for (bool b : in_mis) size += b ? 1 : 0;
  EXPECT_GE(size, 120u / 6u);
}

}  // namespace
}  // namespace ds::mis
