// Tests for the multi-rank executor: the determinism contract — for a
// fixed (graph, IdStrategy, seed), DistributedNetwork must produce
// bit-identical per-node outputs, round counts and RoundStats to the
// sequential Network at every rank count — read through the
// executor-portable output gather, plus the abort paths, halo and gather
// traffic of any size, program residency and release, and a >= 100k-node
// stress instance. tests/test_runtime.cpp reads the same digests through
// `program(v)`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "coloring/randcolor.hpp"
#include "determinism_probe.hpp"
#include "dist/distributed_network.hpp"
#include "graph/generators.hpp"
#include "local/network.hpp"
#include "local/round_stats.hpp"
#include "mis/mis.hpp"
#include "orient/sinkless.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

namespace ds::dist {
namespace {

// The probe program is shared with the thread-rank determinism suite
// (tests/determinism_probe.hpp), so the two suites pin the same traffic
// pattern against every executor.
using probes::probe_factory;

DistributedConfig ranks(std::size_t count) {
  DistributedConfig config;
  config.workers = count;
  return config;
}

local::OutputFn probe_output_fn() {
  return [](graph::NodeId, const local::NodeProgram& p,
            std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const probes::ProbeBase&>(p).digest());
  };
}

std::vector<std::uint64_t> probe_digests(local::Executor& exec,
                                         local::IdStrategy ids,
                                         std::uint64_t seed,
                                         std::size_t* rounds = nullptr) {
  exec.set_output_fn(probe_output_fn());
  const std::size_t r = exec.run(probe_factory(), ids, seed, 100);
  if (rounds != nullptr) *rounds = r;
  std::vector<std::uint64_t> digests(exec.graph().num_nodes());
  for (graph::NodeId v = 0; v < digests.size(); ++v) {
    digests[v] = exec.outputs().value(v);
  }
  return digests;
}

void expect_bit_identical(const graph::Graph& g, local::IdStrategy strategy,
                          std::uint64_t seed) {
  local::Network sequential(g);
  std::size_t seq_rounds = 0;
  const auto expected = probe_digests(sequential, strategy, seed, &seq_rounds);
  for (std::size_t workers : {1, 2, 4}) {
    DistributedConfig config;
    config.workers = workers;
    DistributedNetwork par(g, config);
    std::size_t par_rounds = 0;
    const auto got = probe_digests(par, strategy, seed, &par_rounds);
    EXPECT_EQ(par.uids(), sequential.uids());
    EXPECT_EQ(par_rounds, seq_rounds) << "workers=" << workers;
    EXPECT_EQ(got, expected) << "workers=" << workers;
  }
}

// ---- Determinism suite ---------------------------------------------------

TEST(DistributedDeterminism, Gnp) {
  Rng rng(7);
  const auto g = graph::gen::gnp(300, 0.03, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 11);
}

TEST(DistributedDeterminism, Torus) {
  const auto g = graph::gen::torus(20, 20);
  expect_bit_identical(g, local::IdStrategy::kSequential, 3);
}

TEST(DistributedDeterminism, RandomBiregular) {
  Rng rng(5);
  const auto b = graph::gen::random_biregular(120, 240, 6, rng);
  expect_bit_identical(b.unified(), local::IdStrategy::kDegreeDescending, 9);
}

TEST(DistributedDeterminism, BarabasiAlbertSkew) {
  // Preferential attachment: hub nodes concentrate cut edges on one worker —
  // the worst case for the halo tables.
  Rng rng(13);
  const auto g = graph::gen::barabasi_albert(2000, 4, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 17);
}

TEST(DistributedDeterminism, StressHundredThousandNodes) {
  // >= 100k nodes: torus 370x370 = 136,900 (also exercised under ASan/UBSan
  // in the sanitizer CI job).
  const auto g = graph::gen::torus(370, 370);
  local::Network sequential(g);
  const auto expected =
      probe_digests(sequential, local::IdStrategy::kSequential, 123);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork par(g, config);
  EXPECT_EQ(probe_digests(par, local::IdStrategy::kSequential, 123), expected);
}

// Algorithm-level equality through the ExecutorFactory plumbing: Luby MIS,
// trial coloring and the sinkless-orientation program, at 2 and 4 ranks.
TEST(DistributedDeterminism, LubyTrialColoringSinkless) {
  Rng rng(2);
  const auto g = graph::gen::random_regular(384, 8, rng);
  const auto seq_mis = mis::luby(g, 77);
  const auto seq_col = coloring::randomized_coloring(g, 78);
  const auto seq_orient = orient::sinkless_program(g, 79, 3);
  for (std::size_t workers : {2, 4}) {
    runtime::RuntimeConfig config;
    config.kind = runtime::RuntimeKind::kParallel;
    config.threads = workers;
    const auto executor = runtime::make_executor_factory(config);

    const auto par_mis = mis::luby(g, 77, nullptr, 10000,
                                  local::IdStrategy::kSequential, executor);
    EXPECT_EQ(par_mis.in_mis, seq_mis.in_mis) << "workers=" << workers;
    EXPECT_EQ(par_mis.executed_rounds, seq_mis.executed_rounds);

    const auto par_col = coloring::randomized_coloring(
        g, 78, nullptr, 10000, local::IdStrategy::kSequential, executor);
    EXPECT_EQ(par_col.colors, seq_col.colors) << "workers=" << workers;
    EXPECT_EQ(par_col.num_colors, seq_col.num_colors);
    EXPECT_EQ(par_col.executed_rounds, seq_col.executed_rounds);

    const auto par_orient =
        orient::sinkless_program(g, 79, 3, nullptr, 30, executor);
    EXPECT_EQ(par_orient.toward_v, seq_orient.toward_v)
        << "workers=" << workers;
    EXPECT_EQ(par_orient.executed_rounds, seq_orient.executed_rounds);
    EXPECT_EQ(par_orient.trials, seq_orient.trials);
  }
}

TEST(DistributedRoundStats, MatchesSequentialExecutor) {
  Rng rng(31);
  const auto g = graph::gen::gnp(200, 0.03, rng);
  local::Network seq(g);
  DistributedConfig config;
  config.workers = 3;
  DistributedNetwork par(g, config);
  std::vector<local::RoundStats> seq_stats;
  std::vector<local::RoundStats> par_stats;
  seq.set_stats_sink([&](const local::RoundStats& s) {
    seq_stats.push_back(s);
  });
  par.set_stats_sink([&](const local::RoundStats& s) {
    par_stats.push_back(s);
  });
  const std::size_t seq_rounds =
      seq.run(probe_factory(), local::IdStrategy::kSequential, 8, 100);
  const std::size_t par_rounds =
      par.run(probe_factory(), local::IdStrategy::kSequential, 8, 100);
  EXPECT_EQ(seq_rounds, par_rounds);
  ASSERT_EQ(seq_stats.size(), seq_rounds);
  ASSERT_EQ(par_stats.size(), par_rounds);
  for (std::size_t r = 0; r < seq_stats.size(); ++r) {
    EXPECT_EQ(par_stats[r].round, r);
    EXPECT_EQ(seq_stats[r].live_nodes, par_stats[r].live_nodes) << r;
    EXPECT_EQ(seq_stats[r].messages, par_stats[r].messages) << r;
    EXPECT_EQ(seq_stats[r].payload_words, par_stats[r].payload_words) << r;
    EXPECT_GE(par_stats[r].wall_seconds, 0.0);
  }
}

// ---- Executor behavior ---------------------------------------------------

TEST(DistributedNetwork, CostMeterAndReuse) {
  const auto g = graph::gen::torus(8, 8);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(g, config);
  local::CostMeter meter;
  net.set_output_fn(probe_output_fn());
  const std::size_t r1 =
      net.run(probe_factory(), local::IdStrategy::kSequential, 4, 100, &meter);
  EXPECT_EQ(meter.executed_rounds(), r1);
  // Re-running the same executor (fresh rank threads per run) must be
  // deterministic too.
  const auto first = probe_digests(net, local::IdStrategy::kSequential, 4);
  const auto second = probe_digests(net, local::IdStrategy::kSequential, 4);
  EXPECT_EQ(first, second);
}

TEST(DistributedNetwork, ReusedAcrossIdentitiesMatchesFreshSequentialRuns) {
  // One executor per kind, built once; each run brings its own (ids, seed)
  // and must equal a fresh sequential executor's run of that identity.
  Rng rng(23);
  const auto g = graph::gen::gnp(240, 0.04, rng);
  local::Network sequential(g);
  DistributedNetwork two(g, ranks(2));
  DistributedNetwork four(g, ranks(4));
  for (const auto& [ids, seed] : probes::kReuseIdentities) {
    local::Network fresh(g);
    const probes::ProbeRun want = probes::probe_run(fresh, ids, seed);
    ASSERT_FALSE(want.stats.empty());
    EXPECT_EQ(probes::probe_run(sequential, ids, seed), want) << seed;
    EXPECT_EQ(probes::probe_run(two, ids, seed), want) << seed;
    EXPECT_EQ(probes::probe_run(four, ids, seed), want) << seed;
  }
}

TEST(DistributedNetwork, ThrowsWhenRoundLimitHit) {
  const auto g = graph::gen::cycle(16);
  DistributedNetwork net(g, ranks(2));
  try {
    net.run(probe_factory(), local::IdStrategy::kSequential, 1, 2);
    ADD_FAILURE() << "expected a round-limit abort";
  } catch (const ds::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("distributed run failed: "), std::string::npos)
        << what;
    EXPECT_NE(what.find("max_rounds"), std::string::npos) << what;
  }
  // The executor must stay usable after the aborted run's ranks are joined.
  EXPECT_GT(net.run(probe_factory(), local::IdStrategy::kSequential, 1, 100),
            2u);
}

TEST(DistributedNetwork, AnyRankFailureAbortsTheRun) {
  // A factory throw in rank 0 (the caller) or in rank 1 becomes the
  // collective abort: every rank is joined, the caller throws with the
  // first message, and the executor stays usable.
  const auto g = graph::gen::torus(8, 8);
  DistributedNetwork net(g, ranks(2));
  for (const std::size_t failing : {0u, 1u}) {
    const graph::NodeId victim = net.partition().first_node(failing);
    const local::ProgramFactory probe = probe_factory();
    try {
      net.run(
          [&](const local::NodeEnv& env) {
            DS_CHECK_MSG(env.node != victim, "factory boom");
            return probe(env);
          },
          local::IdStrategy::kSequential, 1, 100);
      ADD_FAILURE() << "rank " << failing << " failure did not abort the run";
    } catch (const ds::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("distributed run failed: "), std::string::npos)
          << what;
      EXPECT_NE(what.find("factory boom"), std::string::npos) << what;
    }
    EXPECT_GT(net.run(probe_factory(), local::IdStrategy::kSequential, 1, 100),
              0u);
  }
  // A throw that is no std::exception still aborts every thread rank.
  const graph::NodeId victim = net.partition().first_node(1);
  const local::ProgramFactory probe = probe_factory();
  try {
    net.run(
        [&](const local::NodeEnv& env) {
          if (env.node == victim) throw 42;
          return probe(env);
        },
        local::IdStrategy::kSequential, 1, 100);
    ADD_FAILURE() << "a non-std throw did not abort the run";
  } catch (const ds::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown rank exception"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GT(net.run(probe_factory(), local::IdStrategy::kSequential, 1, 100),
            0u);
}

/// A program that writes `words` words on every port for two rounds and
/// folds every word it receives into a digest.
class Chatty final : public local::NodeProgram {
 public:
  Chatty(const local::NodeEnv& env, std::size_t words)
      : uid_(env.uid), degree_(env.degree), words_(words) {}
  void send(std::size_t round, local::Outbox& out) override {
    for (std::size_t p = 0; p < degree_; ++p) {
      for (std::size_t i = 0; i < words_; ++i) {
        out.push(p, uid_ * 1'000'003 + round * 1'009 + p * 31 + i);
      }
    }
  }
  void receive(std::size_t round, const local::Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      for (const std::uint64_t w : inbox[p]) {
        digest_ = (digest_ ^ (w + p)) * 1'099'511'628'211ull;
      }
    }
    done_ = round >= 1;
  }
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t uid_;
  std::size_t degree_;
  std::size_t words_;
  std::uint64_t digest_ = 14'695'981'039'346'656'037ull;
  bool done_ = false;
};

std::vector<std::uint64_t> chatty_digests(local::Executor& exec,
                                          std::size_t words) {
  // Chatty reads no coins or UIDs beyond its own; any identity will do.
  exec.set_output_fn([](graph::NodeId, const local::NodeProgram& p,
                        std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const Chatty&>(p).digest());
  });
  exec.run(
      [words](const local::NodeEnv& env) {
        return std::make_unique<Chatty>(env, words);
      },
      local::IdStrategy::kSequential, 5, 10);
  std::vector<std::uint64_t> digests(exec.graph().num_nodes());
  for (graph::NodeId v = 0; v < digests.size(); ++v) {
    digests[v] = exec.outputs().value(v);
  }
  return digests;
}

TEST(DistributedNetwork, CutTrafficOfAnySizeMatchesSequential) {
  // 300 words per cut port and round on K16: more than the 256 words per
  // port the exchange once reserved up front (and aborted beyond, with
  // "halo exchange overflow"). The halo buffers grow instead.
  const auto g = graph::gen::complete(16);
  local::Network seq(g);
  const auto expected = chatty_digests(seq, 300);
  for (const std::size_t count : {2u, 4u}) {
    DistributedNetwork net(g, ranks(count));
    EXPECT_EQ(chatty_digests(net, 300), expected) << "ranks=" << count;
  }
}

TEST(DistributedNetwork, ReceivePhaseThrowAbortsTheRun) {
  // A node program that throws between ship and sync_liveness unwinds its
  // rank's arena and bank while the peers still read that round's cut
  // traffic. The traffic lives in the executor's halo buffers, so the run
  // fails with the program's message (no peer reads freed memory, which
  // the sanitizer builds would report) and the executor stays usable.
  class ThrowsOnReceive final : public local::NodeProgram {
   public:
    ThrowsOnReceive(const local::NodeEnv& env, bool victim)
        : uid_(env.uid), degree_(env.degree), victim_(victim) {}
    void send(std::size_t, local::Outbox& out) override {
      for (std::size_t p = 0; p < degree_; ++p) {
        for (std::uint64_t i = 0; i < 16; ++i) out.push(p, uid_ + i);
      }
    }
    void receive(std::size_t, const local::Inbox& inbox) override {
      DS_CHECK_MSG(!victim_, "receive boom");
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        for (const std::uint64_t w : inbox[p]) sum_ += w;
      }
      done_ = true;
    }
    [[nodiscard]] bool done() const override { return done_; }

   private:
    std::uint64_t uid_;
    std::size_t degree_;
    bool victim_;
    std::uint64_t sum_ = 0;
    bool done_ = false;
  };
  const auto g = graph::gen::torus(64, 64);
  DistributedNetwork net(g, ranks(4));
  const graph::NodeId victim = net.partition().first_node(1);
  try {
    net.run(
        [victim](const local::NodeEnv& env) {
          return std::make_unique<ThrowsOnReceive>(env, env.node == victim);
        },
        local::IdStrategy::kSequential, 1, 10);
    ADD_FAILURE() << "a receive-phase throw did not abort the run";
  } catch (const ds::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("receive boom"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(net.run(probe_factory(), local::IdStrategy::kSequential, 1, 100),
            0u);
}

TEST(DistributedNetwork, LongOutputRowsGatherIntact) {
  // 100-word rows: more than the per-rank gather budget once reserved up
  // front (64 words per node plus one per node and port, aborting beyond
  // with "output gather overflow"). The gather vectors grow instead.
  const auto g = graph::gen::torus(8, 8);
  const local::OutputFn long_rows = [](graph::NodeId,
                                       const local::NodeProgram& p,
                                       std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    for (std::uint64_t i = 0; i < 100; ++i) out.push_back(probe.digest() + i);
  };
  local::Network seq(g);
  seq.set_output_fn(long_rows);
  DistributedNetwork net(g, ranks(2));
  net.set_output_fn(long_rows);
  EXPECT_EQ(net.run(probe_factory(), local::IdStrategy::kSequential, 3, 100),
            seq.run(probe_factory(), local::IdStrategy::kSequential, 3, 100));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const local::MessageView got = net.outputs().row(v);
    const local::MessageView want = seq.outputs().row(v);
    ASSERT_EQ(got.size(), 100u) << v;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << v;
  }
}

TEST(DistributedNetwork, ThreadRanksKeepEveryProgramResident) {
  // Thread ranks share the caller's address space, so program(v) serves
  // every node after the run, equal to the sequential executor's.
  const auto g = graph::gen::torus(8, 8);
  DistributedNetwork net(g, ranks(2));
  net.run(probe_factory(), local::IdStrategy::kSequential, 4, 100);
  local::Network seq(g);
  seq.run(probe_factory(), local::IdStrategy::kSequential, 4, 100);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& got = static_cast<const probes::ProbeBase&>(net.program(v));
    const auto& want = static_cast<const probes::ProbeBase&>(seq.program(v));
    EXPECT_EQ(got.digest(), want.digest()) << v;
  }
  EXPECT_THROW((void)net.program(g.num_nodes()), ds::CheckError);
}

TEST(DistributedNetwork, EachThreadRankConstructsExactlyItsOwnedRange) {
  // Thread ranks call the factory concurrently, each for its own range
  // only: every rank's count equals its range, rank 0's range is built on
  // the calling thread, and every other rank's on one thread of its own.
  const auto g = graph::gen::torus(10, 10);
  DistributedNetwork net(g, ranks(4));
  const std::size_t ranks = net.num_workers();
  ASSERT_EQ(ranks, 4u);
  std::vector<std::atomic<std::size_t>> calls(ranks);
  std::mutex mu;
  std::map<std::thread::id, std::set<std::size_t>> ranks_by_thread;
  const local::ProgramFactory probe = probe_factory();
  net.run(
      [&](const local::NodeEnv& env) {
        const std::size_t w = net.partition().owner(env.node);
        calls[w].fetch_add(1, std::memory_order_relaxed);
        {
          const std::lock_guard<std::mutex> lock(mu);
          ranks_by_thread[std::this_thread::get_id()].insert(w);
        }
        return probe(env);
      },
      local::IdStrategy::kSequential, 4, 100);
  for (std::size_t w = 0; w < ranks; ++w) {
    EXPECT_EQ(calls[w].load(), net.partition().num_nodes(w)) << "rank " << w;
  }
  ASSERT_EQ(ranks_by_thread.size(), ranks);
  const std::set<std::size_t> rank0 = {0};
  EXPECT_EQ(ranks_by_thread[std::this_thread::get_id()], rank0);
  std::set<std::size_t> seen;
  for (const auto& [thread, owned] : ranks_by_thread) {
    EXPECT_EQ(owned.size(), 1u);
    seen.insert(owned.begin(), owned.end());
  }
  EXPECT_EQ(seen.size(), ranks);
}

TEST(DistributedNetwork, ReleasesEachRanksProgramsOnAThreadOfItsOwn) {
  // Programs stay resident after run(); destroying the executor frees rank
  // 0's on the calling thread and every other rank's off it, each rank's
  // on one thread, every program exactly once.
  class Recording final : public local::NodeProgram {
   public:
    Recording(graph::NodeId node, std::mutex& mu,
              std::map<graph::NodeId, std::thread::id>& destroyed_on)
        : node_(node), mu_(mu), destroyed_on_(destroyed_on) {}
    ~Recording() override {
      const std::lock_guard<std::mutex> lock(mu_);
      EXPECT_TRUE(destroyed_on_.emplace(node_, std::this_thread::get_id())
                      .second)
          << "node " << node_ << " destroyed twice";
    }
    void send(std::size_t, local::Outbox&) override {}
    void receive(std::size_t, const local::Inbox&) override { done_ = true; }
    [[nodiscard]] bool done() const override { return done_; }

   private:
    graph::NodeId node_;
    std::mutex& mu_;
    std::map<graph::NodeId, std::thread::id>& destroyed_on_;
    bool done_ = false;
  };
  const auto g = graph::gen::torus(10, 10);
  std::mutex mu;
  std::map<graph::NodeId, std::thread::id> destroyed_on;
  std::vector<std::size_t> owner(g.num_nodes());
  {
    DistributedNetwork net(g, ranks(4));
    ASSERT_EQ(net.num_workers(), 4u);
    net.run(
        [&](const local::NodeEnv& env) {
          return std::make_unique<Recording>(env.node, mu, destroyed_on);
        },
        local::IdStrategy::kSequential, 4, 10);
    EXPECT_TRUE(destroyed_on.empty());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      owner[v] = net.partition().owner(v);
    }
  }
  ASSERT_EQ(destroyed_on.size(), g.num_nodes());
  std::map<std::size_t, std::set<std::thread::id>> threads_of_rank;
  for (const auto& [v, thread] : destroyed_on) {
    threads_of_rank[owner[v]].insert(thread);
  }
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  EXPECT_EQ(threads_of_rank[0], caller);
  for (std::size_t w = 1; w < 4; ++w) {
    EXPECT_EQ(threads_of_rank[w].size(), 1u) << "rank " << w;
    EXPECT_EQ(threads_of_rank[w].count(std::this_thread::get_id()), 0u)
        << "rank " << w << " was released on the calling thread";
  }
}

TEST(DistributedNetwork, DegenerateInstances) {
  // More ranks than nodes: the rank count is clamped to the node count (an
  // empty range would pay spawn + barrier costs for nothing) and the run
  // must still be bit-identical to the sequential executor.
  const auto small = graph::gen::cycle(3);
  expect_bit_identical(small, local::IdStrategy::kSequential, 2);
  {
    DistributedConfig config;
    config.workers = 8;
    DistributedNetwork net(small, config);
    EXPECT_EQ(net.num_workers(), 3u);
  }

  // Isolated nodes only (no edges at all, nothing to exchange).
  const graph::Graph isolated(5);
  expect_bit_identical(isolated, local::IdStrategy::kSequential, 6);

  // Empty graph: zero rounds, empty output table.
  const graph::Graph empty(0);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(empty, config);
  net.set_output_fn(probe_output_fn());
  EXPECT_EQ(net.run(probe_factory(), local::IdStrategy::kSequential, 1, 10),
            0u);
  EXPECT_EQ(net.outputs().size(), 0u);
}

TEST(DistributedNetwork, DegreeSizedOutputRowsFitTheGather) {
  // Regression: degree-proportional output rows (e.g. sinkless ships one
  // word per port) gather intact even when the degree-balanced split gives
  // one rank a single huge-degree hub and nothing else — a flat per-node
  // gather budget once overflowed here while the sequential executor
  // succeeded.
  std::vector<graph::Edge> spokes;
  for (graph::NodeId v = 1; v < 201; ++v) spokes.push_back({0, v});
  const graph::Graph star(201, std::move(spokes));
  // Worker 0 owns exactly the hub (its 200 ports are half of all ports).
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork par(star, config);
  ASSERT_EQ(par.partition().last_node(0), 1u);
  par.set_output_fn([](graph::NodeId v, const local::NodeProgram& p,
                      std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    // Degree-sized row: 200 words for the hub, 1 for each leaf.
    out.assign(v == 0 ? 200 : 1, probe.digest());
  });
  local::Network seq(star);
  seq.set_output_fn([](graph::NodeId v, const local::NodeProgram& p,
                       std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    out.assign(v == 0 ? 200 : 1, probe.digest());
  });
  EXPECT_EQ(par.run(probe_factory(), local::IdStrategy::kSequential, 1, 100),
            seq.run(probe_factory(), local::IdStrategy::kSequential, 1, 100));
  for (graph::NodeId v = 0; v < 201; ++v) {
    ASSERT_EQ(par.outputs().row(v).size(), seq.outputs().row(v).size()) << v;
    EXPECT_EQ(par.outputs().row(v)[0], seq.outputs().row(v)[0]) << v;
  }
}

TEST(DistributedNetwork, PartitionStatsExposed) {
  const auto g = graph::gen::torus(16, 16);
  DistributedConfig config;
  config.workers = 4;
  DistributedNetwork net(g, config);
  const PartitionStats stats = net.partition().stats();
  EXPECT_EQ(stats.parts, 4u);
  EXPECT_EQ(stats.cut_edges + stats.internal_edges, g.num_edges());
  EXPECT_GT(stats.cut_edges, 0u);
  EXPECT_GE(stats.balance_factor, 1.0);
  EXPECT_LT(stats.balance_factor, 2.0);
}

}  // namespace
}  // namespace ds::dist
