// Tests for the conditional-expectation derandomization engine and the
// concrete pessimistic estimators, including the supermartingale property
// checks that guard estimator validity.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "graph/generators.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::derand {
namespace {

std::vector<std::uint32_t> identity_order(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(Engine, RejectsBadOrders) {
  Problem p;
  p.num_variables = 2;
  p.num_constraints = 0;
  p.var_constraints.resize(2);
  p.phi = [](std::uint32_t, const std::vector<int>&) { return 0.0; };
  EXPECT_THROW(derandomize(p, {0}), ds::CheckError);
  EXPECT_THROW(derandomize(p, {0, 0}), ds::CheckError);
  EXPECT_THROW(derandomize(p, {0, 5}), ds::CheckError);
}

TEST(Engine, DetectsNonSupermartingaleEstimator) {
  // An estimator that grows whenever a variable is fixed is invalid; the
  // engine must throw.
  Problem p;
  p.num_variables = 1;
  p.num_constraints = 1;
  p.num_choices = 2;
  p.var_constraints = {{0}};
  p.phi = [](std::uint32_t, const std::vector<int>& a) {
    return a[0] == kUnset ? 0.1 : 5.0;
  };
  EXPECT_THROW(derandomize(p, identity_order(1)), ds::CheckError);
}

TEST(Engine, GreedyPicksTheCheapestChoice) {
  // Single variable, estimator prefers choice 1.
  Problem p;
  p.num_variables = 1;
  p.num_constraints = 1;
  p.num_choices = 3;
  p.var_constraints = {{0}};
  p.phi = [](std::uint32_t, const std::vector<int>& a) {
    if (a[0] == kUnset) return 0.5;
    return a[0] == 1 ? 0.0 : 0.5;
  };
  const Result r = derandomize(p, identity_order(1));
  EXPECT_EQ(r.assignment[0], 1);
  // Potential 0 up to floating-point dust from the greedy updates.
  EXPECT_NEAR(r.final_potential, 0.0, 1e-12);
}

/// One left node adjacent to all `k` right nodes.
graph::BipartiteGraph star(std::size_t k) {
  std::vector<graph::Edge> edges;
  for (graph::RightId v = 0; v < k; ++v) edges.push_back({0, v});
  return graph::BipartiteGraph(1, k, std::move(edges));
}

graph::BipartiteGraph random_instance(std::size_t nu, std::size_t nv,
                                      std::size_t delta, std::uint64_t seed) {
  Rng rng(seed);
  return graph::gen::random_left_regular(nu, nv, delta, rng);
}

TEST(WeakSplittingEstimator, InitialPotentialMatchesUnionBound) {
  const auto b = random_instance(20, 60, 10, 1);
  const Problem p = weak_splitting_problem(b);
  std::vector<int> empty(b.num_right(), kUnset);
  // Each constraint contributes 2^{1-deg} = 2^{-9}.
  EXPECT_NEAR(total_potential(p, empty), 20.0 * std::pow(2.0, -9.0), 1e-12);
}

TEST(WeakSplittingEstimator, ExactConditionals) {
  // One constraint with 2 neighbors.
  const graph::BipartiteGraph b = star(2);
  const Problem p = weak_splitting_problem(b);
  EXPECT_NEAR(p.phi(0, {kUnset, kUnset}), 0.5, 1e-12);
  EXPECT_NEAR(p.phi(0, {0, kUnset}), 0.5, 1e-12);   // all-red needs 1 coin
  EXPECT_NEAR(p.phi(0, {0, 0}), 1.0, 1e-12);        // monochromatic: bad
  EXPECT_NEAR(p.phi(0, {0, 1}), 0.0, 1e-12);        // both colors: safe
}

TEST(WeakSplittingEstimator, DegreeZeroConstraintIsCertainlyBad) {
  graph::BipartiteGraph b(1, 1);  // left node with no edges
  const Problem p = weak_splitting_problem(b);
  EXPECT_DOUBLE_EQ(p.phi(0, {kUnset}), 1.0);
}

TEST(WeakSplittingEstimator, GreedySolvesWhenPotentialBelowOne) {
  const auto b = random_instance(64, 128, 16, 2);
  const Problem p = weak_splitting_problem(b);
  const Result r = derandomize(p, identity_order(b.num_right()));
  EXPECT_LT(r.initial_potential, 1.0);
  // Potential 0 up to floating-point dust from the greedy updates.
  EXPECT_NEAR(r.final_potential, 0.0, 1e-12);
  splitting::Coloring colors(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    colors[v] = r.assignment[v] == 0 ? splitting::Color::kRed
                                     : splitting::Color::kBlue;
  }
  EXPECT_TRUE(splitting::is_weak_splitting(b, colors));
}

TEST(WeakSplittingEstimator, OrderIndependentValidity) {
  // Weak splitting greedy must produce valid outputs under any processing
  // order (the SLOCAL correctness requirement).
  const auto b = random_instance(32, 64, 12, 3);
  const Problem p = weak_splitting_problem(b);
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    auto order = identity_order(b.num_right());
    std::vector<std::size_t> perm = rng.permutation(order.size());
    std::vector<std::uint32_t> shuffled(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      shuffled[i] = order[perm[i]];
    }
    const Result r = derandomize(p, shuffled);
    EXPECT_DOUBLE_EQ(r.final_potential, 0.0) << "trial " << trial;
  }
}

TEST(MissingColorEstimator, CountsMissingColors) {
  const graph::BipartiteGraph b = star(3);
  const Problem p = missing_color_problem(b, 3);
  const double keep = 2.0 / 3.0;
  EXPECT_NEAR(p.phi(0, {kUnset, kUnset, kUnset}), 3.0 * std::pow(keep, 3),
              1e-12);
  EXPECT_NEAR(p.phi(0, {0, kUnset, kUnset}), 2.0 * std::pow(keep, 2), 1e-12);
  EXPECT_NEAR(p.phi(0, {0, 1, 2}), 0.0, 1e-12);  // rainbow: no color missing
}

TEST(MissingColorEstimator, MartingaleUnderUniformChoice) {
  // Averaging phi over one variable's uniform choice must reproduce the
  // unset value exactly (the estimator is an exact martingale).
  const graph::BipartiteGraph b = star(4);
  const int C = 3;
  const Problem p = missing_color_problem(b, C);
  std::vector<int> a(4, kUnset);
  a[1] = 2;  // some other variable already fixed
  const double before = p.phi(0, a);
  double avg = 0.0;
  for (int c = 0; c < C; ++c) {
    a[0] = c;
    avg += p.phi(0, a) / C;
  }
  EXPECT_NEAR(avg, before, 1e-12);
}

TEST(MissingColorEstimator, GreedyMakesAllColorsSeen) {
  // Degree ~ C log C suffices in practice for the greedy to cover all
  // colors even when the formal bound is loose.
  const auto b = random_instance(16, 200, 60, 4);
  const int C = 8;
  const Problem p = missing_color_problem(b, C);
  const Result r = derandomize(p, identity_order(b.num_right()));
  // Potential 0 up to floating-point dust from the greedy updates.
  EXPECT_NEAR(r.final_potential, 0.0, 1e-12);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    std::vector<bool> seen(C, false);
    for (graph::RightId v : b.left_neighbors(u)) {
      seen[static_cast<std::size_t>(r.assignment[v])] = true;
    }
    for (int c = 0; c < C; ++c) EXPECT_TRUE(seen[c]) << "u=" << u << " c=" << c;
  }
}

TEST(OverloadEstimator, MartingaleUnderUniformChoice) {
  const graph::BipartiteGraph b = star(6);
  const int C = 4;
  const Problem p = overload_problem(b, C, 0.5);
  std::vector<int> a(6, kUnset);
  a[3] = 1;
  const double before = p.phi(0, a);
  double avg = 0.0;
  for (int c = 0; c < C; ++c) {
    a[0] = c;
    avg += p.phi(0, a) / C;
  }
  EXPECT_NEAR(avg, before, 1e-12);
  a[0] = kUnset;
}

TEST(OverloadEstimator, GreedyBalancesColors) {
  const auto b = random_instance(24, 120, 40, 5);
  const int C = 4;
  const double lambda = 0.5;  // cap = 20 out of 40, loose enough
  const Problem p = overload_problem(b, C, lambda);
  const Result r = derandomize(p, identity_order(b.num_right()));
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    std::vector<std::size_t> count(C, 0);
    for (graph::RightId v : b.left_neighbors(u)) {
      ++count[static_cast<std::size_t>(r.assignment[v])];
    }
    for (int c = 0; c < C; ++c) {
      EXPECT_LE(count[c], static_cast<std::size_t>(
                              std::ceil(lambda * b.left_degree(u))));
    }
  }
}

TEST(TwoSidedEstimator, MartingaleUnderFairCoin) {
  const graph::BipartiteGraph b = star(8);
  const Problem p = two_sided_problem(b, 0.2);
  std::vector<int> a(8, kUnset);
  a[5] = 0;
  const double before = p.phi(0, a);
  a[0] = 0;
  const double red = p.phi(0, a);
  a[0] = 1;
  const double blue = p.phi(0, a);
  EXPECT_NEAR(0.5 * red + 0.5 * blue, before, 1e-12);
}

TEST(TwoSidedEstimator, GreedyKeepsCountsInWindow) {
  // Potential ~ 2*nu*exp(-2 eps^2 delta): delta = 64 at eps = 0.2 gives
  // ~0.36 < 1 (delta = 32 sits outside at ~4.6).
  const auto b = random_instance(30, 180, 64, 6);
  const double eps = 0.2;
  const Problem p = two_sided_problem(b, eps);
  const Result r = derandomize(p, identity_order(b.num_right()));
  EXPECT_LT(r.initial_potential, 1.0);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    std::size_t red = 0;
    for (graph::RightId v : b.left_neighbors(u)) {
      if (r.assignment[v] == 0) ++red;
    }
    const double d = static_cast<double>(b.left_degree(u));
    EXPECT_LE(static_cast<double>(red), (0.5 + eps) * d + 1e-9);
    EXPECT_GE(static_cast<double>(red), (0.5 - eps) * d - 1e-9);
  }
}

}  // namespace
}  // namespace ds::derand
