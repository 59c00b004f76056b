// Tests for (α, β)-ruling sets: the verifier, the power-graph MIS
// construction, the deterministic bitwise construction, and the
// message-passing bit-competition program behind the algorithm registry.

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "graph/generators.hpp"
#include "local/ids.hpp"
#include "ruling/ruling_program.hpp"
#include "ruling/ruling_set.hpp"
#include "support/rng.hpp"

namespace ds::ruling {
namespace {

std::vector<std::uint64_t> sequential_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(Verifier, MisIsATwoOneRulingSet) {
  const graph::Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_ruling_set(g, {true, false, true, false}, 2, 1));
  // {0} does not dominate node 3 at radius 1.
  EXPECT_FALSE(is_ruling_set(g, {true, false, false, false}, 2, 1));
  // ...but does at radius 3.
  EXPECT_TRUE(is_ruling_set(g, {true, false, false, false}, 2, 3));
  // Adjacent members violate alpha = 2.
  EXPECT_FALSE(is_ruling_set(g, {true, true, false, false}, 2, 3));
}

TEST(Verifier, AlphaThreeSeparation) {
  const auto g = graph::gen::cycle(6);
  // Nodes 0 and 2 are at distance 2: fine for alpha 2, not for alpha 3.
  std::vector<bool> s(6, false);
  s[0] = s[2] = true;
  EXPECT_TRUE(is_ruling_set(g, s, 2, 2));
  EXPECT_FALSE(is_ruling_set(g, s, 3, 2));
  // Antipodal nodes 0 and 3 are at distance 3.
  std::vector<bool> t(6, false);
  t[0] = t[3] = true;
  EXPECT_TRUE(is_ruling_set(g, t, 3, 2));
}

TEST(Verifier, EmptySetOnlyRulesEmptyGraph) {
  graph::Graph g(3);
  EXPECT_FALSE(is_ruling_set(g, {false, false, false}, 2, 5));
  graph::Graph empty(0);
  EXPECT_TRUE(is_ruling_set(empty, {}, 2, 1));
}

class PowerMisSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PowerMisSweep, ProducesVerifiedRulingSet) {
  const auto [n, alpha] = GetParam();
  Rng rng(n * alpha);
  const auto g = graph::gen::gnp(n, 4.0 / static_cast<double>(n), rng);
  local::CostMeter meter;
  const auto result = ruling_set_via_power_mis(g, alpha, 5, &meter);
  EXPECT_EQ(result.alpha, alpha);
  EXPECT_EQ(result.beta, alpha - 1);
  EXPECT_TRUE(is_ruling_set(g, result.in_set, alpha, alpha - 1));
  if (alpha > 2) {
    EXPECT_GT(meter.charged_rounds(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, PowerMisSweep,
                         ::testing::Values(std::make_tuple(60, 2),
                                           std::make_tuple(60, 3),
                                           std::make_tuple(120, 4),
                                           std::make_tuple(120, 5)));

TEST(Bitwise, ProducesTwoBetaRulingSet) {
  for (std::size_t n : {16, 64, 200}) {
    Rng rng(n);
    const auto g = graph::gen::gnp(n, 3.0 / static_cast<double>(n), rng);
    local::CostMeter meter;
    const auto result = ruling_set_bitwise(g, sequential_ids(n), &meter);
    EXPECT_EQ(result.alpha, 2u);
    EXPECT_TRUE(is_ruling_set(g, result.in_set, 2, result.beta));
    EXPECT_GT(meter.charged_rounds(), 0.0);
  }
}

TEST(Bitwise, BetaTracksBitWidthNotUidMagnitude) {
  // Shifting all UIDs up by a constant must not break the construction.
  Rng rng(77);
  const auto g = graph::gen::random_regular(64, 4, rng);
  std::vector<std::uint64_t> ids = sequential_ids(64);
  for (auto& id : ids) id += (1ull << 40);
  const auto result = ruling_set_bitwise(g, ids);
  EXPECT_TRUE(is_ruling_set(g, result.in_set, 2, result.beta));
  EXPECT_LE(result.beta, 41u + 1u);
}

TEST(Bitwise, PathGraphKeepsIndependence) {
  std::vector<graph::Edge> path;
  for (graph::NodeId v = 0; v + 1 < 8; ++v) path.push_back({v, v + 1});
  const graph::Graph g(8, std::move(path));
  const auto result = ruling_set_bitwise(g, sequential_ids(8));
  for (const graph::Edge& e : g.edges()) {
    EXPECT_FALSE(result.in_set[e.u] && result.in_set[e.v]);
  }
}

TEST(Bitwise, CliqueSelectsExactlyOne) {
  const auto g = graph::gen::complete(17);
  const auto result = ruling_set_bitwise(g, sequential_ids(17));
  std::size_t count = 0;
  for (bool b : result.in_set) count += b ? 1 : 0;
  EXPECT_EQ(count, 1u);
}

TEST(Bitwise, AdversarialIdOrdersStillVerify) {
  Rng rng(5);
  const auto g = graph::gen::random_regular(80, 6, rng);
  std::vector<std::uint64_t> ids = sequential_ids(80);
  for (int trial = 0; trial < 10; ++trial) {
    rng.shuffle(ids);
    const auto result = ruling_set_bitwise(g, ids);
    EXPECT_TRUE(is_ruling_set(g, result.in_set, 2, result.beta));
  }
}

// ---- Message-passing program (registry port) -----------------------------

TEST(Program, RulesAssortedInstances) {
  Rng rng(6);
  for (const graph::Graph& g :
       {graph::gen::gnp(90, 0.08, rng), graph::gen::torus(8, 7),
        graph::gen::barabasi_albert(80, 3, rng), graph::gen::cycle(17)}) {
    const auto outcome = ruling_set_program(g, 1);
    EXPECT_TRUE(is_ruling_set(g, outcome.result.in_set, 2,
                              outcome.result.beta));
    // One round per UID bit, plus none when a drop empties a whole bit.
    EXPECT_LE(outcome.executed_rounds, outcome.result.beta);
  }
}

TEST(Program, AllIdStrategiesVerify) {
  Rng rng(7);
  const auto g = graph::gen::gnp(70, 0.1, rng);
  for (local::IdStrategy ids :
       {local::IdStrategy::kSequential, local::IdStrategy::kRandomPermutation,
        local::IdStrategy::kDegreeDescending}) {
    const auto outcome = ruling_set_program(g, 11, ids);
    EXPECT_TRUE(is_ruling_set(g, outcome.result.in_set, 2,
                              outcome.result.beta));
  }
}

TEST(Program, DegenerateInstances) {
  // Single node: rules itself in zero rounds.
  const auto single = ruling_set_program(graph::Graph(1), 1);
  EXPECT_EQ(single.result.in_set, std::vector<bool>{true});
  EXPECT_EQ(single.executed_rounds, 0u);
  // Empty graph.
  const auto empty = ruling_set_program(graph::Graph(0), 1);
  EXPECT_TRUE(empty.result.in_set.empty());
  // Isolated nodes all rule (no edges to separate them).
  const auto isolated = ruling_set_program(graph::Graph(5), 1);
  for (const bool in : isolated.result.in_set) EXPECT_TRUE(in);
  // Two adjacent nodes: exactly one survives.
  const graph::Graph pair(2, {{0, 1}});
  const auto two = ruling_set_program(pair, 1);
  EXPECT_NE(two.result.in_set[0], two.result.in_set[1]);
}

TEST(Program, DeterministicAcrossRepeats) {
  Rng rng(8);
  const auto g = graph::gen::gnp(60, 0.1, rng);
  const auto a = ruling_set_program(g, 3, local::IdStrategy::kRandomPermutation);
  const auto b = ruling_set_program(g, 3, local::IdStrategy::kRandomPermutation);
  EXPECT_EQ(a.result.in_set, b.result.in_set);
  EXPECT_EQ(a.executed_rounds, b.executed_rounds);
}

}  // namespace
}  // namespace ds::ruling
