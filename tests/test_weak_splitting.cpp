// Tests for the weak splitting problem definition, verifier, trivial
// randomized algorithm, basic derandomization (Lemma 2.1), truncation
// (Lemma 2.2), and the message-passing coin + local-repair program behind
// the algorithm registry.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "local/executor.hpp"
#include "splitting/basic_derand.hpp"
#include "splitting/splitting_program.hpp"
#include "splitting/trivial_random.hpp"
#include "splitting/truncate.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::splitting {
namespace {

graph::BipartiteGraph two_constraints() {
  // u0 ~ {v0, v1}, u1 ~ {v1, v2}.
  graph::BipartiteGraph b(2, 3);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 1);
  b.add_edge(1, 2);
  return b;
}

TEST(Verifier, AcceptsAndRejects) {
  const auto b = two_constraints();
  EXPECT_TRUE(is_weak_splitting(
      b, {Color::kRed, Color::kBlue, Color::kRed}));
  EXPECT_FALSE(is_weak_splitting(
      b, {Color::kRed, Color::kRed, Color::kBlue}));  // u0 all red
  EXPECT_FALSE(is_weak_splitting(
      b, {Color::kBlue, Color::kBlue, Color::kBlue}));
}

TEST(Verifier, DegreeThresholdRelaxes) {
  const auto b = two_constraints();
  // All red violates both constraints, but with min_degree = 3 nothing is
  // constrained.
  const Coloring all_red(3, Color::kRed);
  EXPECT_FALSE(is_weak_splitting(b, all_red, 0));
  EXPECT_TRUE(is_weak_splitting(b, all_red, 3));
}

TEST(Verifier, ReportsUnsatisfiedNodes) {
  const auto b = two_constraints();
  const auto bad =
      unsatisfied_nodes(b, {Color::kRed, Color::kRed, Color::kBlue});
  EXPECT_EQ(bad, (std::vector<graph::LeftId>{0}));
}

TEST(Verifier, CheckMessagesAreSpecific) {
  const auto b = two_constraints();
  EXPECT_NE(check_weak_splitting(b, {Color::kRed, Color::kRed, Color::kRed})
                .find("does not see both colors"),
            std::string::npos);
  EXPECT_NE(
      check_weak_splitting(b, {Color::kUncolored, Color::kRed, Color::kBlue})
          .find("uncolored"),
      std::string::npos);
  EXPECT_EQ(check_weak_splitting(b, {Color::kRed, Color::kBlue, Color::kRed}),
            "");
}

TEST(TrivialRandom, SucceedsAtHighDegreeWhp) {
  Rng rng(1);
  // δ = 24 >= 2 log2(n) for n = 72+: failure bound 72·2^{-23} tiny.
  const auto b = graph::gen::random_left_regular(24, 48, 24, rng);
  EXPECT_LT(trivial_failure_bound(b), 0.01);
  int failures = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Coloring colors = trivial_random_split(b, rng);
    if (!is_weak_splitting(b, colors)) ++failures;
  }
  EXPECT_EQ(failures, 0);
}

TEST(TrivialRandom, FailureBoundFormula) {
  const auto b = two_constraints();  // two constraints of degree 2
  EXPECT_DOUBLE_EQ(trivial_failure_bound(b), 2.0 * std::pow(2.0, -1.0));
}

TEST(BasicDerand, Lemma21ProducesValidSplitting) {
  Rng rng(2);
  // n = 192, 2 log2 n ≈ 15.2; δ = 16 qualifies.
  const auto b = graph::gen::random_left_regular(64, 128, 16, rng);
  local::CostMeter meter;
  BasicDerandInfo info;
  const Coloring colors = basic_derand_split(b, rng, &meter, &info);
  EXPECT_TRUE(is_weak_splitting(b, colors));
  EXPECT_LT(info.initial_potential, 1.0);
  EXPECT_DOUBLE_EQ(info.final_potential, 0.0);
  EXPECT_GT(info.schedule_colors, 0u);
  // Costs include the B² coloring and the O(C) schedule.
  EXPECT_GT(meter.breakdown().at("distance-coloring"), 0.0);
  EXPECT_GT(meter.breakdown().at("slocal-compile"), 0.0);
}

TEST(BasicDerand, WorksOnRankTwoInstances) {
  Rng rng(3);
  const auto base = graph::gen::random_regular(64, 16, rng);
  const auto b = graph::gen::incidence_bipartite(base);
  local::CostMeter meter;
  const Coloring colors = basic_derand_split(b, rng, &meter);
  EXPECT_TRUE(is_weak_splitting(b, colors));
}

TEST(Truncate, KeepsExactlyTargetEdges) {
  Rng rng(4);
  const auto b = graph::gen::random_left_regular(16, 64, 32, rng);
  const auto t = truncate_left_degrees(b, 10);
  for (graph::LeftId u = 0; u < t.num_left(); ++u) {
    EXPECT_EQ(t.left_degree(u), 10u);
  }
  EXPECT_LE(t.rank(), b.rank());
}

TEST(Truncate, ShortDegreesUntouched) {
  const auto b = two_constraints();
  const auto t = truncate_left_degrees(b, 5);
  EXPECT_EQ(t.num_edges(), b.num_edges());
}

TEST(Truncate, Lemma22EndToEnd) {
  Rng rng(5);
  // Large degree: truncation must still give a valid splitting of the
  // *original* graph.
  const auto b = graph::gen::random_left_regular(32, 256, 128, rng);
  local::CostMeter meter;
  BasicDerandInfo info;
  const Coloring colors = truncated_split(b, rng, &meter, &info);
  EXPECT_TRUE(is_weak_splitting(b, colors));
  EXPECT_LT(info.initial_potential, 1.0);
}

TEST(RobustSolve, HandlesTinyInstances) {
  Rng rng(6);
  const auto b = two_constraints();
  const Coloring colors = robust_component_solve(b, rng);
  EXPECT_TRUE(is_weak_splitting(b, colors));
}

TEST(RobustSolve, ThrowsOnUnsolvableDegreeOne) {
  graph::BipartiteGraph b(1, 1);
  b.add_edge(0, 0);  // a constrained left node of degree 1
  Rng rng(7);
  EXPECT_THROW(robust_component_solve(b, rng), ds::CheckError);
}

TEST(RobustSolve, RespectsDegreeThreshold) {
  graph::BipartiteGraph b(2, 3);
  b.add_edge(0, 0);  // u0 has degree 1 -> unconstrained at threshold 2
  b.add_edge(1, 1);
  b.add_edge(1, 2);
  Rng rng(8);
  const Coloring colors = robust_component_solve(b, rng, 2);
  EXPECT_TRUE(is_weak_splitting(b, colors, 2));
}

class TrivialSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrivialSweep, FailureRateTracksUnionBound) {
  // Property sweep: empirical failure rate of the 0-round algorithm is
  // bounded by (and of the same order as) Σ_u 2^{1-deg}.
  const std::size_t delta = GetParam();
  Rng rng(100 + delta);
  const auto b = graph::gen::random_left_regular(32, 64, delta, rng);
  const double bound = trivial_failure_bound(b);
  int failures = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    if (!is_weak_splitting(b, trivial_random_split(b, rng))) ++failures;
  }
  const double rate = static_cast<double>(failures) / trials;
  // Empirical rate must not exceed the union bound by more than noise.
  EXPECT_LE(rate, std::min(1.0, bound) + 0.08) << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(DegreeGrid, TrivialSweep,
                         ::testing::Values(2, 4, 8, 16, 24));

// ---- Message-passing program (registry port) -----------------------------

TEST(Program, SplitsBiregularInstances) {
  Rng rng(31);
  for (const std::size_t delta : {4, 6, 8}) {
    const auto b = graph::gen::random_biregular(32, 64, delta, rng);
    const auto outcome = weak_splitting_program(b, 7);
    EXPECT_TRUE(is_weak_splitting(b, outcome.colors, 2)) << delta;
    EXPECT_GE(outcome.trials, 1u);
    for (const Color c : outcome.colors) {
      EXPECT_NE(c, Color::kUncolored);
    }
  }
}

TEST(Program, MinDegreeRelaxationIsHonored) {
  // u0 ~ {v0}: degree 1 can never see both colors; with min_degree 2 the
  // program must still satisfy the remaining constraints.
  graph::BipartiteGraph b(2, 3);
  b.add_edge(0, 0);
  b.add_edge(1, 0);
  b.add_edge(1, 1);
  b.add_edge(1, 2);
  const auto outcome = weak_splitting_program(b, 5, /*min_degree=*/2);
  EXPECT_TRUE(is_weak_splitting(b, outcome.colors, 2));
  EXPECT_FALSE(is_weak_splitting(b, outcome.colors, 0));
}

TEST(Program, StrictDefinitionOnDegreeOneInstanceExhaustsTrials) {
  // Under min_degree = 0 a degree-1 constraint is unsatisfiable, so every
  // Las Vegas trial fails and the driver throws (small budget keeps the
  // test fast). Both trials run on the one executor the factory built.
  graph::BipartiteGraph b(1, 1);
  b.add_edge(0, 0);
  std::size_t calls = 0;
  const local::ExecutorFactory counting = [&calls](const graph::Graph& g) {
    ++calls;
    return local::make_executor({}, g);
  };
  EXPECT_THROW(weak_splitting_program(b, 5, /*min_degree=*/0, nullptr,
                                      /*max_trials=*/2, counting),
               ds::CheckError);
  EXPECT_EQ(calls, 1u);
}

TEST(Program, DeterministicAcrossRepeats) {
  Rng rng(32);
  const auto b = graph::gen::random_biregular(24, 48, 6, rng);
  const auto x = weak_splitting_program(b, 9);
  const auto y = weak_splitting_program(b, 9);
  EXPECT_EQ(x.colors, y.colors);
  EXPECT_EQ(x.executed_rounds, y.executed_rounds);
  EXPECT_EQ(x.trials, y.trials);
}

}  // namespace
}  // namespace ds::splitting
