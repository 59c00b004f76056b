// Tests for the LOCAL-model simulator: cost accounting, ID assignment,
// synchronous message passing semantics, and the program lifetime: every
// program dies inside its run.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "graph/generators.hpp"
#include "lifetime_probe.hpp"
#include "local/cost.hpp"
#include "local/ids.hpp"
#include "local/network.hpp"
#include "support/check.hpp"

namespace ds::local {
namespace {

TEST(CostMeter, AccumulatesAndMerges) {
  CostMeter a;
  a.add_executed(3);
  a.charge("x", 10.0);
  CostMeter b;
  b.add_executed(5);
  b.charge("x", 2.0);
  b.charge("y", 7.0);

  CostMeter seq = a;
  seq.merge_sequential(b);
  EXPECT_EQ(seq.executed_rounds(), 8u);
  EXPECT_DOUBLE_EQ(seq.charged_rounds(), 19.0);
  EXPECT_DOUBLE_EQ(seq.breakdown().at("x"), 12.0);

  CostMeter par = a;
  par.merge_parallel_max(b);
  EXPECT_EQ(par.executed_rounds(), 5u);
  // Totals take the max of the meters: max(10, 2+7) = 10.
  EXPECT_DOUBLE_EQ(par.charged_rounds(), 10.0);
  EXPECT_DOUBLE_EQ(par.breakdown().at("x"), 10.0);
  EXPECT_DOUBLE_EQ(par.total_rounds(), 15.0);
}

TEST(CostMeter, NegativeChargeRejected) {
  CostMeter m;
  EXPECT_THROW(m.charge("bad", -1.0), ds::CheckError);
}

TEST(Cost, DegreeSplittingCostShapes) {
  // Deterministic cost grows with log n; randomized with log log n.
  const double det_small = degree_splitting_cost_det(0.1, 1 << 10);
  const double det_big = degree_splitting_cost_det(0.1, 1 << 20);
  EXPECT_NEAR(det_big / det_small, 2.0, 0.01);
  const double rand_small = degree_splitting_cost_rand(0.1, 1 << 10);
  const double rand_big = degree_splitting_cost_rand(0.1, 1 << 20);
  EXPECT_LT(rand_big / rand_small, 1.5);
  // Smaller eps costs more.
  EXPECT_GT(degree_splitting_cost_det(0.01, 1024),
            degree_splitting_cost_det(0.1, 1024));
}

TEST(Cost, LogStar) {
  EXPECT_DOUBLE_EQ(log_star(1), 0.0);
  EXPECT_DOUBLE_EQ(log_star(2), 1.0);
  EXPECT_DOUBLE_EQ(log_star(4), 2.0);
  EXPECT_DOUBLE_EQ(log_star(65536), 4.0);
}

TEST(Ids, AllStrategiesArePermutations) {
  Rng rng(4);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  for (IdStrategy s : {IdStrategy::kSequential, IdStrategy::kRandomPermutation,
                       IdStrategy::kDegreeDescending}) {
    const auto ids = assign_ids(g, s, rng);
    std::set<std::uint64_t> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), g.num_nodes());
    EXPECT_EQ(*unique.rbegin(), g.num_nodes() - 1);
  }
}

TEST(Ids, DegreeDescendingOrdersByDegree) {
  const graph::Graph g(4, {{0, 1}, {0, 2}, {0, 3}});  // node 0 has max degree
  Rng rng(5);
  const auto ids = assign_ids(g, IdStrategy::kDegreeDescending, rng);
  EXPECT_EQ(ids[0], 3u);  // highest id goes to the highest-degree node
}

/// A program that floods the maximum UID seen so far; converges in
/// diameter-many rounds. Exercises send/receive plumbing and ports.
class MaxFlood : public NodeProgram {
 public:
  explicit MaxFlood(const NodeEnv& env) : env_(env), best_(env.uid) {}

  void send(std::size_t, Outbox& out) override { out.broadcast({best_}); }

  void receive(std::size_t round, const Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      if (!inbox[p].empty()) best_ = std::max(best_, inbox[p][0]);
    }
    // A value being momentarily stable proves nothing in LOCAL (the true
    // max may still be several hops away); flood for n >= diameter rounds.
    if (round + 1 >= env_.n) stable_ = true;
  }

  [[nodiscard]] bool done() const override { return stable_; }

  std::uint64_t best() const { return best_; }

 private:
  NodeEnv env_;
  std::uint64_t best_;
  bool stable_ = false;
};

TEST(Network, FloodsMaximumUid) {
  Rng rng(6);
  const graph::Graph g = graph::gen::cycle(12);
  Network net(g);
  CostMeter meter;
  const RunResult run = net.run(
      programs<MaxFlood>([](const NodeEnv& env) { return MaxFlood(env); }),
      [](graph::NodeId, const NodeProgram& p,
         std::vector<std::uint64_t>& out) {
        out.push_back(static_cast<const MaxFlood&>(p).best());
      },
      IdStrategy::kRandomPermutation, 99, 100, &meter);
  EXPECT_GT(run.rounds, 0u);
  EXPECT_EQ(meter.executed_rounds(), run.rounds);
  ASSERT_EQ(run.outputs.size(), g.num_nodes());
  const std::uint64_t expected = g.num_nodes() - 1;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(run.outputs.value(v), expected);
  }
}

TEST(Network, DestroysEveryProgramOnTheCallingThreadBeforeRunReturns) {
  const graph::Graph g = graph::gen::torus(6, 6);
  probes::Lifetimes log;
  {
    Network net(g);
    net.run(probes::mortal_factory(log), {}, IdStrategy::kSequential, 1, 10);
    EXPECT_EQ(log.built_on.size(), g.num_nodes());
    EXPECT_EQ(log.destroyed_on.size(), g.num_nodes());
    EXPECT_EQ(log.repeats, 0u);
    for (const auto& [v, thread] : log.destroyed_on) {
      EXPECT_EQ(thread, std::this_thread::get_id()) << "node " << v;
    }
  }
  // Destroying the executor destroys nothing more.
  EXPECT_EQ(log.destroyed_on.size(), g.num_nodes());
  EXPECT_EQ(log.repeats, 0u);
}

TEST(NodeEnv, NeighborUidReadsTheUidTableOrTheNodeId) {
  // Random and degree IDs point `uids` at the run's table; sequential IDs,
  // on every executor and in situ, leave it null: a node's UID is its id.
  const graph::NodeId row[3] = {4, 0, 2};
  const std::uint64_t table[5] = {70, 71, 72, 73, 74};
  NodeEnv env;
  env.degree = 3;
  env.neighbors = row;
  env.uids = table;
  EXPECT_EQ(env.neighbor_uid(0), 74u);
  EXPECT_EQ(env.neighbor_uid(1), 70u);
  EXPECT_EQ(env.neighbor_uid(2), 72u);
  env.uids = nullptr;
  EXPECT_EQ(env.neighbor_uid(0), 4u);
  EXPECT_EQ(env.neighbor_uid(2), 2u);
}

/// Program that verifies the port mapping: every node sends its UID on each
/// port and checks that what it receives on port p matches neighbor_uid(p).
class PortChecker : public NodeProgram {
 public:
  explicit PortChecker(const NodeEnv& env) : env_(env) {}

  void send(std::size_t, Outbox& out) override {
    out.broadcast({env_.uid});
  }

  void receive(std::size_t, const Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      ASSERT_EQ(inbox[p].size(), 1u);
      EXPECT_EQ(inbox[p][0], env_.neighbor_uid(p));
    }
    done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }

 private:
  NodeEnv env_;
  bool done_ = false;
};

TEST(Network, PortsMatchNeighborUids) {
  Rng rng(7);
  const graph::Graph g = graph::gen::gnp(25, 0.3, rng);
  Network net(g);
  net.run(programs<PortChecker>(
              [](const NodeEnv& env) { return PortChecker(env); }),
          {}, IdStrategy::kRandomPermutation, 5, 4);
}

TEST(Network, ThrowsOnRoundLimit) {
  /// A program that never halts.
  class Forever : public NodeProgram {
   public:
    void send(std::size_t, Outbox&) override {}
    void receive(std::size_t, const Inbox&) override {}
    [[nodiscard]] bool done() const override { return false; }
  };
  const graph::Graph g = graph::gen::cycle(4);
  Network net(g);
  EXPECT_THROW(
      net.run(programs<Forever>([](const NodeEnv&) { return Forever(); }),
              {}, IdStrategy::kSequential, 1, 3),
      ds::CheckError);
}

TEST(Network, PerNodeRandomnessIsStable) {
  const graph::Graph g = graph::gen::cycle(6);
  // Two networks with the same seed must hand nodes identical RNG streams.
  std::vector<std::uint64_t> draws_a;
  std::vector<std::uint64_t> draws_b;
  for (auto* out : {&draws_a, &draws_b}) {
    class OneShot : public NodeProgram {
     public:
      OneShot(NodeEnv env, std::vector<std::uint64_t>* sink)
          : env_(std::move(env)), sink_(sink) {}
      void send(std::size_t, Outbox&) override {}
      void receive(std::size_t, const Inbox&) override {
        sink_->push_back(env_.rng.next_raw());
        done_ = true;
      }
      [[nodiscard]] bool done() const override { return done_; }

     private:
      NodeEnv env_;
      std::vector<std::uint64_t>* sink_;
      bool done_ = false;
    };
    Network net(g);
    net.run(programs<OneShot>(
                [out](const NodeEnv& env) { return OneShot(env, out); }),
            {}, IdStrategy::kSequential, 1234, 2);
  }
  EXPECT_EQ(draws_a, draws_b);
}

}  // namespace
}  // namespace ds::local
