// Tests for the multi-rank executor: the determinism contract — for a
// fixed (graph, IdStrategy, seed), DistributedNetwork must produce
// bit-identical per-node outputs, round counts and RoundStats to the
// sequential Network at every worker count — plus the executor-portable
// output gather, the abort paths on forked and thread ranks, program
// residency per spawn, and a >= 100k-node stress instance. The thread-rank
// determinism suite is tests/test_runtime.cpp.

#include <gtest/gtest.h>

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

DistributedConfig spawned(RankSpawn spawn, std::size_t workers) {
  DistributedConfig config;
  config.workers = workers;
  config.spawn = spawn;
  return config;
}

const char* spawn_name(RankSpawn spawn) {
  return spawn == RankSpawn::kThread ? "threads" : "processes";
}

local::OutputFn probe_output_fn() {
  return [](graph::NodeId, const local::NodeProgram& p,
            std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const probes::ProbeBase&>(p).digest());
  };
}

std::vector<std::uint64_t> probe_digests(local::Executor& exec,
                                         std::size_t* rounds = nullptr) {
  exec.set_output_fn(probe_output_fn());
  const std::size_t r = exec.run(probe_factory(), 100);
  if (rounds != nullptr) *rounds = r;
  std::vector<std::uint64_t> digests(exec.graph().num_nodes());
  for (graph::NodeId v = 0; v < digests.size(); ++v) {
    digests[v] = exec.outputs().value(v);
  }
  return digests;
}

void expect_bit_identical(const graph::Graph& g, local::IdStrategy strategy,
                          std::uint64_t seed) {
  local::Network sequential(g, strategy, seed);
  std::size_t seq_rounds = 0;
  const auto expected = probe_digests(sequential, &seq_rounds);
  for (std::size_t workers : {1, 2, 4}) {
    DistributedConfig config;
    config.workers = workers;
    DistributedNetwork mp(g, strategy, seed, config);
    EXPECT_EQ(mp.uids(), sequential.uids());
    std::size_t mp_rounds = 0;
    const auto got = probe_digests(mp, &mp_rounds);
    EXPECT_EQ(mp_rounds, seq_rounds) << "workers=" << workers;
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
  local::Network sequential(g, local::IdStrategy::kSequential, 123);
  const auto expected = probe_digests(sequential);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork mp(g, local::IdStrategy::kSequential, 123, config);
  EXPECT_EQ(probe_digests(mp), expected);
}

// Algorithm-level equality through the ExecutorFactory plumbing: Luby MIS,
// trial coloring and the sinkless-orientation program, at 2 and 4 workers.
TEST(DistributedDeterminism, LubyTrialColoringSinkless) {
  Rng rng(2);
  const auto g = graph::gen::random_regular(384, 8, rng);
  const auto seq_mis = mis::luby(g, 77);
  const auto seq_col = coloring::randomized_coloring(g, 78);
  const auto seq_orient = orient::sinkless_program(g, 79, 3);
  for (std::size_t workers : {2, 4}) {
    runtime::RuntimeConfig config;
    config.kind = runtime::RuntimeKind::kMultiProcess;
    config.workers = workers;
    const auto executor = runtime::make_executor_factory(config);

    const auto mp_mis = mis::luby(g, 77, nullptr, 10000,
                                  local::IdStrategy::kSequential, executor);
    EXPECT_EQ(mp_mis.in_mis, seq_mis.in_mis) << "workers=" << workers;
    EXPECT_EQ(mp_mis.executed_rounds, seq_mis.executed_rounds);

    const auto mp_col = coloring::randomized_coloring(
        g, 78, nullptr, 10000, local::IdStrategy::kSequential, executor);
    EXPECT_EQ(mp_col.colors, seq_col.colors) << "workers=" << workers;
    EXPECT_EQ(mp_col.num_colors, seq_col.num_colors);
    EXPECT_EQ(mp_col.executed_rounds, seq_col.executed_rounds);

    const auto mp_orient =
        orient::sinkless_program(g, 79, 3, nullptr, 30, executor);
    EXPECT_EQ(mp_orient.toward_v, seq_orient.toward_v)
        << "workers=" << workers;
    EXPECT_EQ(mp_orient.executed_rounds, seq_orient.executed_rounds);
    EXPECT_EQ(mp_orient.trials, seq_orient.trials);
  }
}

TEST(DistributedRoundStats, MatchesSequentialExecutor) {
  Rng rng(31);
  const auto g = graph::gen::gnp(200, 0.03, rng);
  local::Network seq(g, local::IdStrategy::kSequential, 8);
  DistributedConfig config;
  config.workers = 3;
  DistributedNetwork mp(g, local::IdStrategy::kSequential, 8, config);
  std::vector<local::RoundStats> seq_stats;
  std::vector<local::RoundStats> mp_stats;
  seq.set_stats_sink([&](const local::RoundStats& s) {
    seq_stats.push_back(s);
  });
  mp.set_stats_sink([&](const local::RoundStats& s) {
    mp_stats.push_back(s);
  });
  const std::size_t seq_rounds = seq.run(probe_factory(), 100);
  const std::size_t mp_rounds = mp.run(probe_factory(), 100);
  EXPECT_EQ(seq_rounds, mp_rounds);
  ASSERT_EQ(seq_stats.size(), seq_rounds);
  ASSERT_EQ(mp_stats.size(), mp_rounds);
  for (std::size_t r = 0; r < seq_stats.size(); ++r) {
    EXPECT_EQ(mp_stats[r].round, r);
    EXPECT_EQ(seq_stats[r].live_nodes, mp_stats[r].live_nodes) << r;
    EXPECT_EQ(seq_stats[r].messages, mp_stats[r].messages) << r;
    EXPECT_EQ(seq_stats[r].payload_words, mp_stats[r].payload_words) << r;
    EXPECT_GE(mp_stats[r].wall_seconds, 0.0);
  }
}

// ---- Executor behavior ---------------------------------------------------

TEST(DistributedNetwork, CostMeterAndReuse) {
  const auto g = graph::gen::torus(8, 8);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 4, config);
  local::CostMeter meter;
  net.set_output_fn(probe_output_fn());
  const std::size_t r1 = net.run(probe_factory(), 100, &meter);
  EXPECT_EQ(meter.executed_rounds(), r1);
  // Re-running the same executor (a fresh worker fleet per run) must be
  // deterministic too.
  const auto first = probe_digests(net);
  const auto second = probe_digests(net);
  EXPECT_EQ(first, second);
}

TEST(DistributedNetwork, ThrowsWhenRoundLimitHit) {
  const auto g = graph::gen::cycle(16);
  for (const RankSpawn spawn : {RankSpawn::kProcess, RankSpawn::kThread}) {
    DistributedNetwork net(g, local::IdStrategy::kSequential, 1,
                           spawned(spawn, 2));
    try {
      net.run(probe_factory(), 2);
      ADD_FAILURE() << spawn_name(spawn) << ": expected a round-limit abort";
    } catch (const ds::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("distributed run failed: "), std::string::npos)
          << spawn_name(spawn) << ": " << what;
      EXPECT_NE(what.find("max_rounds"), std::string::npos)
          << spawn_name(spawn) << ": " << what;
    }
    // The executor must stay usable after the aborted fleet is torn down.
    EXPECT_GT(net.run(probe_factory(), 100), 2u) << spawn_name(spawn);
  }
}

TEST(DistributedNetwork, AnyRankFailureAbortsTheRun) {
  // A factory throw in rank 0 (the caller) or in rank 1 becomes the
  // collective abort: every rank is joined or reaped, the caller throws
  // with the first message, and the executor stays usable.
  const auto g = graph::gen::torus(8, 8);
  for (const RankSpawn spawn : {RankSpawn::kProcess, RankSpawn::kThread}) {
    DistributedNetwork net(g, local::IdStrategy::kSequential, 1,
                           spawned(spawn, 2));
    for (const std::size_t failing : {0u, 1u}) {
      const graph::NodeId victim = net.partition().first_node(failing);
      const local::ProgramFactory probe = probe_factory();
      try {
        net.run(
            [&](const local::NodeEnv& env) {
              DS_CHECK_MSG(env.node != victim, "factory boom");
              return probe(env);
            },
            100);
        ADD_FAILURE() << spawn_name(spawn) << ": rank " << failing
                      << " failure did not abort the run";
      } catch (const ds::CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("distributed run failed: "), std::string::npos)
            << spawn_name(spawn) << ": " << what;
        EXPECT_NE(what.find("factory boom"), std::string::npos)
            << spawn_name(spawn) << ": " << what;
      }
      EXPECT_GT(net.run(probe_factory(), 100), 0u) << spawn_name(spawn);
    }
  }
  // A throw that is no std::exception still aborts every thread rank.
  DistributedNetwork net(g, local::IdStrategy::kSequential, 1,
                         spawned(RankSpawn::kThread, 2));
  const graph::NodeId victim = net.partition().first_node(1);
  const local::ProgramFactory probe = probe_factory();
  try {
    net.run(
        [&](const local::NodeEnv& env) {
          if (env.node == victim) throw 42;
          return probe(env);
        },
        100);
    ADD_FAILURE() << "a non-std throw did not abort the run";
  } catch (const ds::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown rank exception"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GT(net.run(probe_factory(), 100), 0u);
}

/// A program that writes 64 words on every port, then halts.
local::ProgramFactory chatty_factory() {
  return [](const local::NodeEnv& env) {
    class Chatty final : public local::NodeProgram {
     public:
      explicit Chatty(std::size_t degree) : degree_(degree) {}
      void send(std::size_t, local::Outbox& out) override {
        for (std::size_t p = 0; p < degree_; ++p) {
          const std::vector<std::uint64_t> payload(64, p);
          out.write(p, payload.data(), payload.size());
        }
      }
      void receive(std::size_t, const local::Inbox&) override {
        done_ = true;
      }
      [[nodiscard]] bool done() const override { return done_; }

     private:
      std::size_t degree_;
      bool done_ = false;
    };
    return std::make_unique<Chatty>(env.degree);
  };
}

TEST(DistributedNetwork, HaloOverflowAbortsCleanly) {
  // A program whose cut messages exceed the transport reservation must fail
  // loudly (naming the knob) in every rank, not hang or corrupt.
  const auto g = graph::gen::complete(16);
  for (const RankSpawn spawn : {RankSpawn::kProcess, RankSpawn::kThread}) {
    DistributedConfig config = spawned(spawn, 2);
    config.halo_words_per_port = 1;  // floor is 64 words/pair; send > that
    DistributedNetwork net(g, local::IdStrategy::kSequential, 5, config);
    try {
      net.run(chatty_factory(), 10);
      ADD_FAILURE() << spawn_name(spawn) << ": expected halo overflow";
    } catch (const ds::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("halo"), std::string::npos)
          << spawn_name(spawn) << ": " << e.what();
    }
  }
}

TEST(DistributedNetwork, ProgramAccessorIsOwnerLocal) {
  const auto g = graph::gen::torus(8, 8);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 4, config);
  net.run(probe_factory(), 100);
  // Worker 0's own range is resident in the calling process...
  const graph::NodeId mine = net.partition().first_node(0);
  EXPECT_NO_THROW((void)net.program(mine));
  // ...another worker's nodes live in a process that no longer exists.
  const graph::NodeId theirs = net.partition().first_node(1);
  EXPECT_THROW((void)net.program(theirs), ds::CheckError);
}

TEST(DistributedNetwork, ThreadRanksKeepEveryProgramResident) {
  // Thread ranks share the caller's address space, so program(v) serves
  // every node after the run, equal to the sequential executor's.
  const auto g = graph::gen::torus(8, 8);
  DistributedNetwork net(g, local::IdStrategy::kSequential, 4,
                         spawned(RankSpawn::kThread, 2));
  net.run(probe_factory(), 100);
  local::Network seq(g, local::IdStrategy::kSequential, 4);
  seq.run(probe_factory(), 100);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& got = static_cast<const probes::ProbeBase&>(net.program(v));
    const auto& want = static_cast<const probes::ProbeBase&>(seq.program(v));
    EXPECT_EQ(got.digest(), want.digest()) << v;
  }
  EXPECT_THROW((void)net.program(g.num_nodes()), ds::CheckError);
}

TEST(DistributedNetwork, WorkerZeroConstructsOnlyItsOwnedPrograms) {
  // Worker 0 is the calling process, so its factory calls are observable
  // here: exactly one per owned node, not one per node of the instance.
  const auto g = graph::gen::torus(10, 10);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 4, config);
  std::size_t calls = 0;
  const local::ProgramFactory probe = probe_factory();
  net.run(
      [&](const local::NodeEnv& env) {
        ++calls;
        return probe(env);
      },
      100);
  EXPECT_EQ(calls, net.partition().num_nodes(0));
}

TEST(DistributedNetwork, EachThreadRankConstructsExactlyItsOwnedRange) {
  // Thread ranks call the factory concurrently, each for its own range
  // only: every rank's count equals its range, rank 0's range is built on
  // the calling thread, and every other rank's on one thread of its own.
  const auto g = graph::gen::torus(10, 10);
  DistributedNetwork net(g, local::IdStrategy::kSequential, 4,
                         spawned(RankSpawn::kThread, 4));
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
      100);
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

TEST(DistributedNetwork, DegenerateInstances) {
  // More workers than nodes: the fleet is clamped to the node count (an
  // empty range would pay fork + barrier costs for nothing) and the run
  // must still be bit-identical to the sequential executor.
  const auto small = graph::gen::cycle(3);
  expect_bit_identical(small, local::IdStrategy::kSequential, 2);
  {
    DistributedConfig config;
    config.workers = 8;
    DistributedNetwork net(small, local::IdStrategy::kSequential, 2, config);
    EXPECT_EQ(net.num_workers(), 3u);
  }

  // Isolated nodes only (no edges at all, nothing to exchange).
  const graph::Graph isolated(5);
  expect_bit_identical(isolated, local::IdStrategy::kSequential, 6);

  // Empty graph: zero rounds, empty output table.
  const graph::Graph empty(0);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(empty, local::IdStrategy::kSequential, 1, config);
  net.set_output_fn(probe_output_fn());
  EXPECT_EQ(net.run(probe_factory(), 10), 0u);
  EXPECT_EQ(net.outputs().size(), 0u);
}

TEST(DistributedNetwork, DegreeSizedOutputRowsFitTheGather) {
  // Regression: the gather reservation must accommodate degree-proportional
  // output rows (e.g. sinkless ships one word per port) even when the
  // degree-balanced split gives one worker a single huge-degree hub and
  // nothing else — a flat per-node budget used to overflow here while the
  // in-process executors succeeded.
  graph::Graph star(201);
  for (graph::NodeId v = 1; v < 201; ++v) star.add_edge(0, v);
  // Worker 0 owns exactly the hub (its 200 ports are half of all ports).
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork mp(star, local::IdStrategy::kSequential, 1, config);
  ASSERT_EQ(mp.partition().last_node(0), 1u);
  mp.set_output_fn([](graph::NodeId v, const local::NodeProgram& p,
                      std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    // Degree-sized row: 200 words for the hub, 1 for each leaf.
    out.assign(v == 0 ? 200 : 1, probe.digest());
  });
  local::Network seq(star, local::IdStrategy::kSequential, 1);
  seq.set_output_fn([](graph::NodeId v, const local::NodeProgram& p,
                       std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    out.assign(v == 0 ? 200 : 1, probe.digest());
  });
  EXPECT_EQ(mp.run(probe_factory(), 100), seq.run(probe_factory(), 100));
  for (graph::NodeId v = 0; v < 201; ++v) {
    ASSERT_EQ(mp.outputs().row(v).size(), seq.outputs().row(v).size()) << v;
    EXPECT_EQ(mp.outputs().row(v)[0], seq.outputs().row(v)[0]) << v;
  }
}

TEST(DistributedNetwork, TransportKnobsReachTheExecutor) {
  // --halo-words / --gather-words are the escape hatch the overflow
  // messages name; they must parse and reach both multi-rank runtimes.
  for (const char* runtime : {"--runtime=mp", "--runtime=parallel"}) {
    const char* argv[] = {"x", runtime, "--workers=2", "--threads=2",
                          "--halo-words=1024", "--gather-words=512"};
    const auto config = runtime::runtime_from_options(Options(6, argv));
    EXPECT_EQ(config.halo_words, 1024u);
    EXPECT_EQ(config.gather_words, 512u);
    const auto factory = runtime::make_executor_factory(config);
    const auto g = graph::gen::torus(8, 8);
    const auto exec = factory(g, local::IdStrategy::kSequential, 3);
    exec->set_output_fn(probe_output_fn());
    local::Network seq(g, local::IdStrategy::kSequential, 3);
    EXPECT_EQ(probe_digests(*exec), probe_digests(seq)) << runtime;

    // A reservation below the chatty program's demand must overflow: the
    // knob really sized the transport.
    const char* argv_tight[] = {"x", runtime, "--workers=2", "--threads=2",
                                "--halo-words=1"};
    const auto k16 = graph::gen::complete(16);
    const auto tight = runtime::make_executor_factory(
        runtime::runtime_from_options(Options(5, argv_tight)))(
        k16, local::IdStrategy::kSequential, 5);
    EXPECT_THROW(tight->run(chatty_factory(), 10), ds::CheckError)
        << runtime;
  }
}

TEST(DistributedNetwork, PartitionStatsExposed) {
  const auto g = graph::gen::torus(16, 16);
  DistributedConfig config;
  config.workers = 4;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 9, config);
  const PartitionStats stats = net.partition().stats();
  EXPECT_EQ(stats.parts, 4u);
  EXPECT_EQ(stats.cut_edges + stats.internal_edges, g.num_edges());
  EXPECT_GT(stats.cut_edges, 0u);
  EXPECT_GE(stats.balance_factor, 1.0);
  EXPECT_LT(stats.balance_factor, 2.0);
}

}  // namespace
}  // namespace ds::dist
