// Tests for the thread-rank runtime (`--runtime=parallel`): RoundStats
// accounting, runtime selection, and above all the determinism contract —
// for a fixed (graph, IdStrategy, seed), T thread ranks running the shared
// rank loop must produce bit-identical per-node outputs and round counts to
// the sequential Network at every thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coloring/randcolor.hpp"
#include "determinism_probe.hpp"
#include "dist/distributed_network.hpp"
#include "graph/generators.hpp"
#include "local/network.hpp"
#include "local/round_stats.hpp"
#include "mis/mis.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

namespace ds::runtime {
namespace {

/// The executor `--runtime=parallel --threads=threads` builds.
std::shared_ptr<local::Executor> threaded(const graph::Graph& g,
                                          std::size_t threads) {
  RuntimeConfig config;
  config.kind = RuntimeKind::kParallel;
  config.threads = threads;
  return make_executor_factory(config)(g);
}

// ---- Determinism suite ---------------------------------------------------

// The probe program lives in determinism_probe.hpp, shared with the
// determinism suite of tests/test_dist.cpp; both must produce the same
// digests, read from the run's output table.
using probes::probe_factory;
using probes::probe_run;

void expect_bit_identical(const graph::Graph& g, local::IdStrategy strategy,
                          std::uint64_t seed) {
  local::Network sequential(g);
  const probes::ProbeRun expected = probe_run(sequential, strategy, seed);
  ASSERT_EQ(expected.digests.size(), g.num_nodes());
  for (std::size_t threads : {1, 2, 8}) {
    const auto parallel = threaded(g, threads);
    const probes::ProbeRun got = probe_run(*parallel, strategy, seed);
    EXPECT_EQ(got.digests, expected.digests) << "threads=" << threads;
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ThreadRanksDeterminism, Gnp) {
  Rng rng(7);
  const auto g = graph::gen::gnp(400, 0.02, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 11);
}

TEST(ThreadRanksDeterminism, Torus) {
  const auto g = graph::gen::torus(24, 24);
  expect_bit_identical(g, local::IdStrategy::kSequential, 3);
}

TEST(ThreadRanksDeterminism, RandomBiregular) {
  Rng rng(5);
  const auto b = graph::gen::random_biregular(150, 300, 6, rng);
  expect_bit_identical(b.unified(), local::IdStrategy::kDegreeDescending, 9);
}

TEST(ThreadRanksDeterminism, BarabasiAlbertSkew) {
  // Preferential attachment: heavily skewed degrees, the worst case for
  // rank balancing — hub nodes own a large share of all ports.
  Rng rng(13);
  const auto g = graph::gen::barabasi_albert(3000, 4, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 17);
}

TEST(ThreadRanksDeterminism, StressHundredThousandNodes) {
  // >= 100k nodes: torus 370x370 = 136,900.
  const auto g = graph::gen::torus(370, 370);
  local::Network sequential(g);
  const auto expected =
      probe_run(sequential, local::IdStrategy::kSequential, 123);
  const auto parallel = threaded(g, 8);
  EXPECT_EQ(probe_run(*parallel, local::IdStrategy::kSequential, 123),
            expected);
}

// Algorithm-level equality through the ExecutorFactory plumbing.
TEST(ThreadRanksDeterminism, LubyAndTrialColoring) {
  Rng rng(2);
  const auto g = graph::gen::random_regular(512, 8, rng);
  RuntimeConfig config;
  config.kind = RuntimeKind::kParallel;
  config.threads = 4;
  const auto executor = make_executor_factory(config);

  const auto seq_mis = mis::luby(g, 77);
  const auto par_mis = mis::luby(g, 77, nullptr, 10000,
                                 local::IdStrategy::kSequential, executor);
  EXPECT_EQ(par_mis.in_mis, seq_mis.in_mis);
  EXPECT_EQ(par_mis.executed_rounds, seq_mis.executed_rounds);

  const auto seq_col = coloring::randomized_coloring(g, 78);
  const auto par_col = coloring::randomized_coloring(
      g, 78, nullptr, 10000, local::IdStrategy::kSequential, executor);
  EXPECT_EQ(par_col.colors, seq_col.colors);
  EXPECT_EQ(par_col.num_colors, seq_col.num_colors);
  EXPECT_EQ(par_col.executed_rounds, seq_col.executed_rounds);
}

// ---- Executor behavior ---------------------------------------------------

TEST(ThreadRanks, ThrowsWhenRoundLimitHit) {
  const auto g = graph::gen::cycle(16);
  const auto net = threaded(g, 2);
  EXPECT_THROW(
      net->run(probe_factory(), {}, local::IdStrategy::kSequential, 1, 2),
      ds::CheckError);
}

TEST(ThreadRanks, CostMeterAndReuse) {
  const auto g = graph::gen::torus(8, 8);
  const auto net = threaded(g, 2);
  local::CostMeter meter;
  const std::size_t r1 =
      net->run(probe_factory(), {}, local::IdStrategy::kSequential, 4, 100,
               &meter)
          .rounds;
  EXPECT_EQ(meter.executed_rounds(), r1);
  // Re-running on the same executor must be deterministic too.
  const auto first = probe_run(*net, local::IdStrategy::kSequential, 4);
  const auto second = probe_run(*net, local::IdStrategy::kSequential, 4);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.rounds, r1);
}

TEST(ThreadRanks, RoundStatsAreExact) {
  // Small 4-regular torus: counts are bounded and predictable modulo the
  // probe's silent-port rule.
  const auto g = graph::gen::torus(6, 6);
  const auto net = threaded(g, 3);
  std::vector<local::RoundStats> stats;
  net->set_stats_sink([&](const local::RoundStats& s) { stats.push_back(s); });
  const std::size_t rounds =
      net->run(probe_factory(), {}, local::IdStrategy::kSequential, 21, 100)
          .rounds;
  ASSERT_EQ(stats.size(), rounds);
  for (std::size_t r = 0; r < stats.size(); ++r) {
    EXPECT_EQ(stats[r].round, r);
    EXPECT_GE(stats[r].wall_seconds, 0.0);
    EXPECT_LE(stats[r].live_nodes, g.num_nodes());
    // Every message of the probe carries exactly 3 words.
    EXPECT_EQ(stats[r].payload_words, 3 * stats[r].messages);
    EXPECT_LE(stats[r].messages, 2 * g.num_edges());
  }
  EXPECT_EQ(stats[0].live_nodes, g.num_nodes());

  // The probe is deterministic, so totals must match a second run on the
  // same executor exactly.
  std::vector<local::RoundStats> again;
  net->set_stats_sink([&](const local::RoundStats& s) { again.push_back(s); });
  net->run(probe_factory(), {}, local::IdStrategy::kSequential, 21, 100);
  ASSERT_EQ(again.size(), stats.size());
  for (std::size_t r = 0; r < stats.size(); ++r) {
    EXPECT_EQ(again[r].messages, stats[r].messages);
    EXPECT_EQ(again[r].payload_words, stats[r].payload_words);
    EXPECT_EQ(again[r].live_nodes, stats[r].live_nodes);
  }
}

TEST(RoundStats, SequentialAndParallelExecutorsAgree) {
  // The stats hook is part of the Executor interface: the sequential
  // Network must report the same per-round message/payload/live counts as
  // the thread ranks for the same deterministic program.
  Rng rng(31);
  const auto g = graph::gen::gnp(200, 0.03, rng);
  local::Network seq(g);
  const auto par = threaded(g, 3);
  std::vector<local::RoundStats> seq_stats;
  std::vector<local::RoundStats> par_stats;
  seq.set_stats_sink([&](const local::RoundStats& s) { seq_stats.push_back(s); });
  par->set_stats_sink([&](const local::RoundStats& s) { par_stats.push_back(s); });
  const std::size_t seq_rounds =
      seq.run(probe_factory(), {}, local::IdStrategy::kSequential, 8, 100)
          .rounds;
  const std::size_t par_rounds =
      par->run(probe_factory(), {}, local::IdStrategy::kSequential, 8, 100)
          .rounds;
  EXPECT_EQ(seq_rounds, par_rounds);
  ASSERT_EQ(seq_stats.size(), seq_rounds);
  ASSERT_EQ(par_stats.size(), par_rounds);
  for (std::size_t r = 0; r < seq_stats.size(); ++r) {
    EXPECT_EQ(seq_stats[r].round, r);
    EXPECT_EQ(par_stats[r].round, r);
    EXPECT_EQ(seq_stats[r].live_nodes, par_stats[r].live_nodes) << r;
    EXPECT_EQ(seq_stats[r].messages, par_stats[r].messages) << r;
    EXPECT_EQ(seq_stats[r].payload_words, par_stats[r].payload_words) << r;
  }
}

TEST(RuntimeSelect, ParsesOptions) {
  const char* argv_seq[] = {"x"};
  EXPECT_EQ(runtime_from_options(Options(1, argv_seq)).kind,
            RuntimeKind::kSequential);

  const auto g = graph::gen::cycle(8);
  const char* argv_par[] = {"x", "--runtime=parallel", "--threads=3"};
  const auto config = runtime_from_options(Options(3, argv_par));
  EXPECT_EQ(config.kind, RuntimeKind::kParallel);
  EXPECT_EQ(config.threads, 3u);
  EXPECT_EQ(runtime_description(config), "parallel(3 threads)");
  EXPECT_FALSE(static_cast<bool>(make_executor_factory(RuntimeConfig{})));
  // Thread ranks are the multi-rank executor.
  const auto par_exec = make_executor_factory(config)(g);
  const auto* par_dist =
      dynamic_cast<const dist::DistributedNetwork*>(par_exec.get());
  ASSERT_NE(par_dist, nullptr);
  EXPECT_EQ(par_dist->num_workers(), 3u);

  // TCP fleets are not an in-process runtime, and the forked-rank `mp`
  // runtime is gone: the error says what each runtime is and names the
  // launcher of process-per-rank fleets.
  for (const char* bad : {"--runtime=warp", "--runtime=tcp", "--runtime=mp"}) {
    const char* argv_bad[] = {"x", bad};
    try {
      (void)runtime_from_options(Options(2, argv_bad));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const ds::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'sequential' or 'parallel' (thread ranks"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("distsplit_rank"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace ds::runtime
