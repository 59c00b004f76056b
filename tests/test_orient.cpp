// Tests for the orientation substrate: Euler partition, directed degree
// splitting (the Theorem 2.3 contract), and sinkless orientation.

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "graph/multigraph.hpp"
#include "local/executor.hpp"
#include "orient/degree_split.hpp"
#include "orient/euler.hpp"
#include "orient/sinkless.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::orient {
namespace {

graph::Multigraph random_multigraph(std::size_t n, std::size_t m,
                                    std::uint64_t seed) {
  Rng rng(seed);
  graph::Multigraph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.next_index(n));
    const auto b = static_cast<graph::NodeId>(rng.next_index(n));
    g.add_edge(a, b);
  }
  return g;
}

TEST(Euler, PartitionCoversEveryEdgeOnce) {
  const auto g = random_multigraph(20, 60, 1);
  const auto trails = euler_partition(g);
  std::vector<int> covered(g.num_edges(), 0);
  for (const Trail& t : trails) {
    for (graph::EdgeId e : t.edges) ++covered[e];
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(Euler, TrailsAreWalkable) {
  const auto g = random_multigraph(15, 40, 2);
  for (const Trail& t : euler_partition(g)) {
    graph::NodeId at = t.start;
    for (graph::EdgeId e : t.edges) {
      const graph::Edge ep = g.endpoints(e);
      ASSERT_TRUE(ep.u == at || ep.v == at) << "trail breaks at edge " << e;
      at = g.other_endpoint(e, at);
    }
    if (t.closed) {
      EXPECT_EQ(at, t.start);
    }
  }
}

TEST(Euler, OrientationDiscrepancyAtMostOne) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto g = random_multigraph(25, 80 + 5 * seed, seed);
    const graph::Orientation orient = euler_orientation(g);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::size_t disc = graph::orientation_discrepancy(g, orient, v);
      if (g.degree(v) % 2 == 0) {
        EXPECT_EQ(disc, 0u) << "even node " << v << " seed " << seed;
      } else {
        EXPECT_LE(disc, 1u) << "odd node " << v << " seed " << seed;
      }
    }
  }
}

TEST(Euler, StarOrientationDiscrepancyRegression) {
  // Regression: phase 1 must not start several open trails at the same odd
  // node — on a star that would orient every edge out of the center and
  // give it discrepancy d instead of 1.
  for (std::size_t d : {3, 5, 7, 11, 21}) {
    graph::Multigraph g(d + 1);
    for (graph::NodeId leaf = 1; leaf <= d; ++leaf) g.add_edge(0, leaf);
    const graph::Orientation orient = euler_orientation(g);
    EXPECT_LE(graph::orientation_discrepancy(g, orient, 0), 1u) << "d=" << d;
  }
}

TEST(Euler, AlternatingBicoloringDiscrepancyAtMostThree) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto g = random_multigraph(25, 80 + 5 * seed, seed);
    const auto is_red = alternating_bicoloring(g);
    EXPECT_LE(bicoloring_discrepancy(g, is_red), 3u) << "seed " << seed;
  }
}

TEST(Euler, AlternatingBicoloringOnStar) {
  graph::Multigraph g(10);
  for (graph::NodeId leaf = 1; leaf <= 9; ++leaf) g.add_edge(0, leaf);
  const auto is_red = alternating_bicoloring(g);
  EXPECT_LE(bicoloring_discrepancy(g, is_red), 3u);
}

TEST(Euler, AlternatingBicoloringAlternatesAlongTrails) {
  const auto g = random_multigraph(15, 50, 4);
  const auto is_red = alternating_bicoloring(g);
  // Recompute the partition (deterministic) and check strict alternation.
  for (const Trail& t : euler_partition(g)) {
    for (std::size_t i = 1; i < t.edges.size(); ++i) {
      EXPECT_NE(is_red[t.edges[i - 1]], is_red[t.edges[i]]);
    }
  }
}

TEST(Euler, EvenCycleOrientsPerfectly) {
  graph::Multigraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const graph::Orientation orient = euler_orientation(g);
  for (graph::NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(graph::orientation_discrepancy(g, orient, v), 0u);
  }
}

TEST(Euler, HandlesSelfLoopsAndParallelEdges) {
  graph::Multigraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  const auto trails = euler_partition(g);
  std::size_t total = 0;
  for (const Trail& t : trails) total += t.edges.size();
  EXPECT_EQ(total, 4u);
  const graph::Orientation orient = euler_orientation(g);
  EXPECT_EQ(graph::orientation_discrepancy(g, orient, 0), 0u);
  EXPECT_EQ(graph::orientation_discrepancy(g, orient, 1), 0u);
}

class DegreeSplitContract
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DegreeSplitContract, EulerMeetsTheoremContract) {
  const auto [n, m] = GetParam();
  const auto g = random_multigraph(n, m, n + m);
  Rng rng(7);
  SplitConfig config;
  config.eps = 0.1;
  local::CostMeter meter;
  const graph::Orientation orient = degree_split(g, config, rng, &meter);
  EXPECT_TRUE(satisfies_split_contract(g, orient, config.eps));
  EXPECT_LE(max_discrepancy(g, orient), 1u);
  EXPECT_GT(meter.breakdown().at("degree-split"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, DegreeSplitContract,
                         ::testing::Values(std::make_tuple(10, 30),
                                           std::make_tuple(50, 200),
                                           std::make_tuple(100, 1000),
                                           std::make_tuple(8, 8)));

TEST(DegreeSplit, RandomBaselineChargesNothing) {
  const auto g = random_multigraph(40, 200, 3);
  Rng rng(8);
  SplitConfig config;
  config.method = SplitMethod::kRandomBaseline;
  local::CostMeter meter;
  const graph::Orientation orient = degree_split(g, config, rng, &meter);
  EXPECT_EQ(orient.toward_v.size(), g.num_edges());
  EXPECT_DOUBLE_EQ(meter.charged_rounds(), 0.0);
}

TEST(DegreeSplit, RandomizedCostBelowDeterministic) {
  const auto g = random_multigraph(64, 256, 4);
  Rng rng(9);
  SplitConfig det;
  det.eps = 0.05;
  SplitConfig rnd = det;
  rnd.randomized = true;
  local::CostMeter meter_det;
  local::CostMeter meter_rnd;
  degree_split(g, det, rng, &meter_det);
  degree_split(g, rnd, rng, &meter_rnd);
  EXPECT_LT(meter_rnd.charged_rounds(), meter_det.charged_rounds());
}

TEST(Sinkless, VerifierDetectsSinks) {
  const graph::Graph g(3, {{0, 1}, {1, 2}});
  // Both edges point at node 1: nodes 0 and 2 are sinks.
  EXPECT_FALSE(is_sinkless(g, {true, false}, 1));
  // Path orientation 0 -> 1 -> 2: node 2 is a sink.
  EXPECT_FALSE(is_sinkless(g, {true, true}, 1));
  // With min_degree 2 only node 1 is constrained; 0->1->2 gives it outdeg 1.
  EXPECT_TRUE(is_sinkless(g, {true, true}, 2));
}

TEST(Sinkless, RandomFixConvergesOnRegularGraphs) {
  Rng rng(10);
  const graph::Graph g = graph::gen::random_regular(100, 5, rng);
  local::CostMeter meter;
  const auto orientation = sinkless_random_fix(g, rng, &meter);
  EXPECT_TRUE(is_sinkless(g, orientation, 1));
  EXPECT_GT(meter.executed_rounds(), 0u);
}

TEST(Sinkless, ProgramProducesSinklessOrientations) {
  Rng rng(12);
  for (std::size_t d : {3, 5, 8}) {
    const graph::Graph g = graph::gen::random_regular(120, d, rng);
    local::CostMeter meter;
    const auto outcome = sinkless_program(g, 5, 1, &meter);
    EXPECT_TRUE(is_sinkless(g, outcome.toward_v, 1)) << "d=" << d;
    EXPECT_EQ(meter.executed_rounds(), outcome.executed_rounds);
    EXPECT_GE(outcome.trials, 1u);
  }
}

TEST(Sinkless, ProgramRespectsMinDegreeThreshold) {
  // A star: leaves have degree 1 and are unconstrained at min_degree 2;
  // the center must still get an outgoing edge.
  const graph::Graph g(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  const auto outcome = sinkless_program(g, 3, 2);
  EXPECT_TRUE(is_sinkless(g, outcome.toward_v, 2));
}

TEST(Sinkless, ProgramOnSingleEdgeExhaustsTrialsOnOneExecutor) {
  // At min_degree 1 both endpoints of a lone edge need an outgoing edge,
  // so every Las Vegas trial fails and sinkless_program throws; both
  // trials run on the one executor the factory built.
  const graph::Graph g(2, {{0, 1}});
  std::size_t calls = 0;
  const local::ExecutorFactory counting = [&calls](const graph::Graph& fg) {
    ++calls;
    return local::make_executor({}, fg);
  };
  EXPECT_THROW(sinkless_program(g, 5, /*min_degree=*/1, nullptr,
                                /*max_trials=*/2, counting),
               ds::CheckError);
  EXPECT_EQ(calls, 1u);
}

TEST(Sinkless, ProgramHandlesEdgelessGraphs) {
  graph::Graph g(4);
  const auto outcome = sinkless_program(g, 1, 1);
  EXPECT_TRUE(outcome.toward_v.empty());
}

TEST(Sinkless, ProgramRoundsAreLogarithmicInPractice) {
  for (std::size_t n : {64, 256, 1024}) {
    Rng rng(n);
    const graph::Graph g = graph::gen::random_regular(n, 4, rng);
    const auto outcome = sinkless_program(g, 7, 1);
    // One trial of budget 4*log2(n)+16 usually suffices at degree >= 3.
    EXPECT_LE(outcome.trials, 3u) << "n=" << n;
  }
}

TEST(Sinkless, RandomFixOnCycleEventuallyConverges) {
  // Degree 2 is the hardest feasible case; the fix loop must still finish.
  Rng rng(11);
  const graph::Graph g = graph::gen::cycle(16);
  const auto orientation = sinkless_random_fix(g, rng, nullptr, 100000);
  EXPECT_TRUE(is_sinkless(g, orientation, 1));
}

}  // namespace
}  // namespace ds::orient
