// Tests for the TCP runtime: the determinism contract — for a fixed
// (graph, IdStrategy, seed), a loopback `net::TcpNetwork` fleet must
// produce bit-identical per-node outputs, round counts and RoundStats to
// the sequential Network at 2 and 4 ranks — plus the Luby / trial coloring
// / sinkless algorithm plumbing through the ExecutorFactory, degenerate
// instances (ranks > nodes, isolated nodes, empty graph), the rendezvous
// digest handshake, and collective aborts. Mirrors tests/test_dist.cpp so
// the shm and the TCP runtime suites cannot drift apart.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/registry.hpp"
#include "coloring/randcolor.hpp"
#include "determinism_probe.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "local/network.hpp"
#include "local/round_stats.hpp"
#include "mis/mis.hpp"
#include "net/insitu_runner.hpp"
#include "net/loopback.hpp"
#include "net/rendezvous.hpp"
#include "net/tcp_network.hpp"
#include "obs/recorder.hpp"
#include "orient/sinkless.hpp"
#include "support/check.hpp"

namespace ds::net {
namespace {

using probes::probe_factory;

// Tests must fail fast, not sit out the production rendezvous/round
// budgets, when a protocol bug wedges a fleet.
TcpOptions test_options() {
  TcpOptions opts;
  opts.handshake_timeout_ms = 20000;
  opts.round_timeout_ms = 30000;
  return opts;
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

/// Connects loopback rank `lr`'s fleet with the test budgets, handshaking
/// `digests`.
TcpTransport connect(LoopbackRank&& lr, InstanceDigests digests = {}) {
  return TcpTransport(lr.rank, lr.hosts, digests, test_options(),
                      std::move(lr.listen));
}

void expect_bit_identical(const graph::Graph& g, local::IdStrategy strategy,
                          std::uint64_t seed,
                          std::initializer_list<std::size_t> rank_counts = {
                              2, 4}) {
  local::Network sequential(g);
  std::size_t seq_rounds = 0;
  const auto expected = probe_digests(sequential, strategy, seed, &seq_rounds);
  for (const std::size_t ranks : rank_counts) {
    std::vector<std::uint64_t> got;
    std::size_t got_rounds = 0;
    const LoopbackReport report = run_loopback_ranks(
        ranks, [&](LoopbackRank&& lr) -> int {
          const std::size_t rank = lr.rank;
          TcpTransport transport = connect(std::move(lr));
          TcpNetwork net(g, transport);
          std::size_t r = 0;
          const auto digests = probe_digests(net, strategy, seed, &r);
          // Exit-code check, not EXPECT: on child ranks a gtest failure
          // would die silently with the forked process.
          if (net.uids() != sequential.uids()) return 6;
          if (rank == 0) {
            got = digests;
            got_rounds = r;
            return 0;
          }
          // Child ranks verify the re-broadcast output table themselves:
          // the gathered results must be the full, sequential-identical
          // table on every rank, not just on rank 0.
          return (digests == expected && r == seq_rounds) ? 0 : 7;
        });
    EXPECT_TRUE(report.all_ok()) << "ranks=" << ranks;
    EXPECT_EQ(got_rounds, seq_rounds) << "ranks=" << ranks;
    EXPECT_EQ(got, expected) << "ranks=" << ranks;
  }
}

// ---- Determinism suite ---------------------------------------------------

TEST(TcpDeterminism, Gnp) {
  Rng rng(7);
  const auto g = graph::gen::gnp(300, 0.03, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 11);
}

TEST(TcpDeterminism, Torus) {
  const auto g = graph::gen::torus(20, 20);
  expect_bit_identical(g, local::IdStrategy::kSequential, 3);
}

TEST(TcpDeterminism, RandomBiregular) {
  Rng rng(5);
  const auto b = graph::gen::random_biregular(120, 240, 6, rng);
  expect_bit_identical(b.unified(), local::IdStrategy::kDegreeDescending, 9);
}

TEST(TcpDeterminism, BarabasiAlbertSkew) {
  // Preferential attachment: hub nodes concentrate cut edges on one rank —
  // the worst case for the per-pair frame sizes.
  Rng rng(13);
  const auto g = graph::gen::barabasi_albert(1200, 4, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 17);
}

// The probe's traffic shape with fat (64-word) per-port messages — the
// pattern that trips the shm transport's fixed reservation.
class ChattyProbe final : public probes::ProbeBase {
 public:
  using ProbeBase::ProbeBase;
  void send(std::size_t, local::Outbox& out) override {
    for (std::size_t p = 0; p < env_.degree; ++p) {
      const std::vector<std::uint64_t> payload(64, env_.uid ^ p);
      out.write(p, payload.data(), payload.size());
    }
  }
  void receive(std::size_t round, const local::Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      for (std::uint64_t w : inbox[p]) absorb(p, w);
    }
    finish_round(round);
  }
};

TEST(TcpDeterminism, ChattyMessagesNeedNoReservation) {
  // The shm transport reserves halo capacity up front and aborts on
  // overflow; TCP frames size themselves per round. The traffic pattern of
  // the shm overflow regression must simply *work* here — and still match
  // the sequential executor bit for bit.
  const auto g = graph::gen::complete(16);
  const local::ProgramFactory chatty =
      [](const local::NodeEnv& env) -> std::unique_ptr<local::NodeProgram> {
    return std::make_unique<ChattyProbe>(env);
  };
  local::Network sequential(g);
  sequential.set_output_fn(probe_output_fn());
  const std::size_t seq_rounds =
      sequential.run(chatty, local::IdStrategy::kSequential, 5, 100);
  std::vector<std::uint64_t> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < expected.size(); ++v) {
    expected[v] = sequential.outputs().value(v);
  }
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        net.set_output_fn(probe_output_fn());
        if (net.run(chatty, local::IdStrategy::kSequential, 5, 100) !=
            seq_rounds) {
          return 13;
        }
        for (graph::NodeId v = 0; v < expected.size(); ++v) {
          if (net.outputs().value(v) != expected[v]) return 14;
        }
        return 0;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

// Algorithm-level equality through the ExecutorFactory plumbing: Luby MIS,
// trial coloring and the sinkless-orientation program, at 2 and 4 ranks.
TEST(TcpDeterminism, LubyTrialColoringSinkless) {
  Rng rng(2);
  const auto g = graph::gen::random_regular(384, 8, rng);
  const auto seq_mis = mis::luby(g, 77);
  const auto seq_col = coloring::randomized_coloring(g, 78);
  const auto seq_orient = orient::sinkless_program(g, 79, 3);
  for (const std::size_t ranks : {2, 4}) {
    const LoopbackReport report = run_loopback_ranks(
        ranks, [&](LoopbackRank&& lr) -> int {
          // Each algorithm invocation builds its executor (the factory
          // contract), all over the rank's one transport.
          TcpTransport transport = connect(std::move(lr));
          const local::ExecutorFactory executor = [&](const graph::Graph& fg) {
            return std::make_shared<TcpNetwork>(fg, transport);
          };

          const auto mis_out =
              mis::luby(g, 77, nullptr, 10000, local::IdStrategy::kSequential,
                        executor);
          if (mis_out.in_mis != seq_mis.in_mis ||
              mis_out.executed_rounds != seq_mis.executed_rounds) {
            return 10;
          }
          const auto col_out = coloring::randomized_coloring(
              g, 78, nullptr, 10000, local::IdStrategy::kSequential,
              executor);
          if (col_out.colors != seq_col.colors ||
              col_out.num_colors != seq_col.num_colors ||
              col_out.executed_rounds != seq_col.executed_rounds) {
            return 11;
          }
          const auto orient_out =
              orient::sinkless_program(g, 79, 3, nullptr, 30, executor);
          if (orient_out.toward_v != seq_orient.toward_v ||
              orient_out.executed_rounds != seq_orient.executed_rounds ||
              orient_out.trials != seq_orient.trials) {
            return 12;
          }
          return 0;
        });
    EXPECT_TRUE(report.all_ok())
        << "ranks=" << ranks << " rank0=" << report.rank0;
  }
}

TEST(TcpRoundStats, MatchesSequentialExecutor) {
  Rng rng(31);
  const auto g = graph::gen::gnp(200, 0.03, rng);
  local::Network seq(g);
  std::vector<local::RoundStats> seq_stats;
  seq.set_stats_sink(
      [&](const local::RoundStats& s) { seq_stats.push_back(s); });
  const std::size_t seq_rounds =
      seq.run(probe_factory(), local::IdStrategy::kSequential, 8, 100);
  ASSERT_EQ(seq_stats.size(), seq_rounds);

  const LoopbackReport report = run_loopback_ranks(
      3, [&](LoopbackRank&& lr) -> int {
        // The TCP transport aggregates totals on every rank (they ride in
        // the halo frames), so every rank's sink must see the same trace.
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        std::vector<local::RoundStats> stats;
        net.set_stats_sink(
            [&](const local::RoundStats& s) { stats.push_back(s); });
        const std::size_t rounds =
            net.run(probe_factory(), local::IdStrategy::kSequential, 8, 100);
        if (rounds != seq_rounds || stats.size() != seq_stats.size()) {
          return 20;
        }
        for (std::size_t r = 0; r < stats.size(); ++r) {
          if (stats[r].round != r ||
              stats[r].live_nodes != seq_stats[r].live_nodes ||
              stats[r].messages != seq_stats[r].messages ||
              stats[r].payload_words != seq_stats[r].payload_words ||
              stats[r].wall_seconds < 0.0) {
            return 21;
          }
        }
        return 0;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

// ---- Executor behavior ---------------------------------------------------

TEST(TcpNetwork, ReusedAcrossIdentitiesMatchesFreshSequentialRuns) {
  // One executor, built once over one rendezvous; each run brings its own
  // (ids, seed) and must equal a fresh sequential executor's run of that
  // identity on every rank.
  Rng rng(23);
  const auto g = graph::gen::gnp(240, 0.04, rng);
  std::vector<probes::ProbeRun> want;
  for (const auto& [ids, seed] : probes::kReuseIdentities) {
    local::Network fresh(g);
    want.push_back(probes::probe_run(fresh, ids, seed));
  }
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        for (std::size_t i = 0; i < want.size(); ++i) {
          const auto& [ids, seed] = probes::kReuseIdentities[i];
          if (!(probes::probe_run(net, ids, seed) == want[i])) {
            return static_cast<int>(30 + i);
          }
        }
        return 0;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(TcpNetwork, TwoExecutorsAlternateOnOneTransport) {
  // Executors over different graphs share one transport: each run attaches
  // its own partition, so alternating them must reproduce the sequential
  // digests of both graphs.
  const auto torus = graph::gen::torus(12, 12);
  Rng rng(41);
  const auto gnp = graph::gen::gnp(150, 0.05, rng);
  local::Network seq_torus(torus);
  local::Network seq_gnp(gnp);
  const auto want_torus =
      probe_digests(seq_torus, local::IdStrategy::kSequential, 7);
  const auto want_gnp =
      probe_digests(seq_gnp, local::IdStrategy::kRandomPermutation, 8);
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork on_torus(torus, transport);
        TcpNetwork on_gnp(gnp, transport);
        for (int round = 0; round < 2; ++round) {
          if (probe_digests(on_torus, local::IdStrategy::kSequential, 7) !=
              want_torus) {
            return 35;
          }
          if (probe_digests(on_gnp, local::IdStrategy::kRandomPermutation,
                            8) != want_gnp) {
            return 36;
          }
        }
        return 0;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(TcpNetwork, CostMeterAndReuse) {
  const auto g = graph::gen::torus(8, 8);
  local::Network sequential(g);
  const auto expected =
      probe_digests(sequential, local::IdStrategy::kSequential, 4);
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        local::CostMeter meter;
        net.set_output_fn(probe_output_fn());
        const std::size_t r1 = net.run(
            probe_factory(), local::IdStrategy::kSequential, 4, 100, &meter);
        if (meter.executed_rounds() != r1) return 30;
        // Re-running the same executor reuses the standing connections; the
        // result must stay bit-identical.
        const auto first =
            probe_digests(net, local::IdStrategy::kSequential, 4);
        const auto second =
            probe_digests(net, local::IdStrategy::kSequential, 4);
        return (first == expected && second == expected) ? 0 : 31;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(TcpNetwork, ProgramAccessorIsRankLocal) {
  const auto g = graph::gen::torus(8, 8);
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        net.run(probe_factory(), local::IdStrategy::kSequential, 4, 100);
        const graph::NodeId mine = net.partition().first_node(rank);
        const graph::NodeId theirs = net.partition().first_node(1 - rank);
        try {
          (void)net.program(mine);
        } catch (const ds::CheckError&) {
          return 40;  // own range must be resident
        }
        try {
          (void)net.program(theirs);
          return 41;  // the peer's range must not be
        } catch (const ds::CheckError&) {
          return 0;
        }
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(TcpNetwork, EachRankConstructsOnlyItsOwnedPrograms) {
  // A LOCAL program depends only on its own node's environment, so a rank
  // calls the factory exactly once per owned node — never for the n - |own|
  // programs it would throw away.
  const auto g = graph::gen::torus(10, 10);
  for (const std::size_t ranks : {2, 4}) {
    const LoopbackReport report = run_loopback_ranks(
        ranks, [&](LoopbackRank&& lr) -> int {
          const std::size_t rank = lr.rank;
          TcpTransport transport = connect(std::move(lr));
          TcpNetwork net(g, transport);
          std::size_t calls = 0;
          const local::ProgramFactory probe = probe_factory();
          const local::ProgramFactory counting =
              [&](const local::NodeEnv& env) {
                ++calls;
                return probe(env);
              };
          net.run(counting, local::IdStrategy::kSequential, 4, 100);
          return calls == net.partition().num_nodes(rank) ? 0 : 45;
        });
    EXPECT_TRUE(report.all_ok()) << "ranks=" << ranks
                                 << " rank0=" << report.rank0;
  }
}

TEST(TcpNetwork, DegenerateInstances) {
  // More ranks than nodes: a rank process cannot be clamped away like a
  // fork worker, so empty ranges must simply work.
  const auto small = graph::gen::cycle(3);
  expect_bit_identical(small, local::IdStrategy::kSequential, 2, {2, 4});

  // Isolated nodes only (no edges, nothing to exchange).
  const graph::Graph isolated(5);
  expect_bit_identical(isolated, local::IdStrategy::kSequential, 6, {2});

  // Empty graph: zero rounds, empty output table, on every rank.
  const graph::Graph empty(0);
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(empty, transport);
        net.set_output_fn(probe_output_fn());
        if (net.run(probe_factory(), local::IdStrategy::kSequential, 1, 10) !=
            0) {
          return 50;
        }
        return net.outputs().size() == 0 ? 0 : 51;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(TcpNetwork, SingleRankFleetRunsWithoutPeers) {
  const auto g = graph::gen::torus(6, 6);
  local::Network sequential(g);
  std::size_t seq_rounds = 0;
  const auto expected = probe_digests(
      sequential, local::IdStrategy::kSequential, 9, &seq_rounds);
  const LoopbackReport report = run_loopback_ranks(
      1, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        std::size_t r = 0;
        const auto got =
            probe_digests(net, local::IdStrategy::kSequential, 9, &r);
        return (got == expected && r == seq_rounds) ? 0 : 60;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(TcpNetwork, MaxRoundsAbortsTheWholeFleet) {
  const auto g = graph::gen::cycle(16);
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        try {
          net.run(probe_factory(), local::IdStrategy::kSequential, 1, 2);
          return 70;  // must throw on every rank
        } catch (const ds::CheckError& e) {
          return std::string(e.what()).find("max_rounds") !=
                         std::string::npos
                     ? 71
                     : 72;
        }
      });
  EXPECT_EQ(report.rank0, 71);
  ASSERT_EQ(report.peer_exit_codes.size(), 1u);
  EXPECT_EQ(report.peer_exit_codes[0], 71);
}

TEST(TcpRendezvous, RejectsMismatchedLaunches) {
  // Rank 1 is launched with another seed, so its launch digest differs.
  // Both sides must fail fast with the digest diagnosis instead of running
  // to divergent results.
  const auto g = graph::gen::torus(6, 6);
  const std::uint64_t structure = structure_digest(g, 0);
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        const std::uint64_t seed = lr.rank == 0 ? 5 : 6;
        const InstanceDigests digests{
            launch_digest(structure, seed, "sequential"), structure};
        try {
          TcpTransport transport = connect(std::move(lr), digests);
          return 80;  // the handshake must refuse
        } catch (const ds::CheckError& e) {
          return std::string(e.what()).find("digest mismatch") !=
                         std::string::npos
                     ? 81
                     : 82;
        }
      });
  EXPECT_EQ(report.rank0, 81);
  ASSERT_EQ(report.peer_exit_codes.size(), 1u);
  EXPECT_EQ(report.peer_exit_codes[0], 81);
}

TEST(TcpNetwork, PartitionStatsExposed) {
  // The partition layer is shared with the other executors; just pin that
  // a TcpNetwork exposes it per launch size (no fleet needed: rank count 1
  // keeps this test socket-free except for the unused listener).
  const auto g = graph::gen::torus(16, 16);
  const LoopbackReport report = run_loopback_ranks(
      1, [&](LoopbackRank&& lr) -> int {
        TcpTransport transport = connect(std::move(lr));
        TcpNetwork net(g, transport);
        const dist::PartitionStats& stats = net.partition().stats();
        return (stats.parts == 1 && stats.cut_edges == 0 &&
                stats.internal_edges == g.num_edges())
                   ? 0
                   : 90;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

// ---- In-situ scale path --------------------------------------------------

TEST(InsituRunner, MatchesSequentialDigestAcrossFamilies) {
  // The in-situ runner (rank-local generation, no materialized topology
  // anywhere) must reproduce the sequential reference bit-for-bit: same
  // fleet digest, same output sum, same round count, on every rank. One
  // row family, one self-discovering family, one with local duplicates.
  for (const std::string text :
       {"torus:w=12,h=12", "gnm:n=120,deg=5", "ba:n=120,d=3"}) {
    const graph::GenSpec gen = graph::GenSpec::parse(text);
    const std::uint64_t seed = 19;
    const graph::DistributedGenerator dg(gen, seed);
    const mis::MisOutcome expected = mis::luby(dg.generate_full(), seed);
    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t sum = 0;
    for (const bool joined : expected.in_mis) {
      const std::uint64_t w = joined ? 1 : 0;
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (w >> (8 * byte)) & 0xFFull;
        digest *= 1099511628211ull;
      }
      sum += w;
    }
    const algo::Spec& spec = algo::find("mis");
    const algo::Params params = algo::Params::parse(spec.params, {});
    for (const std::size_t ranks : {1, 3}) {
      const LoopbackReport report =
          run_loopback_ranks(ranks, [&](LoopbackRank&& lr) -> int {
            InsituConfig config;
            config.rank = lr.rank;
            config.hosts = std::move(lr.hosts);
            config.listen = std::move(lr.listen);
            config.transport = test_options();
            const InsituResult result =
                run_insitu(spec, params, seed, gen, std::move(config));
            if (!result.verified) return 41;
            if (result.output_digest != digest) return 42;
            if (result.output_sum != sum) return 43;
            if (result.rounds != expected.executed_rounds) return 44;
            return 0;
          });
      EXPECT_TRUE(report.all_ok())
          << text << " ranks=" << ranks << " rank0=" << report.rank0;
    }
  }
}

TEST(InsituRunner, MixedObservabilityAbortIsMemorySafe) {
  // Rank 0 observes, rank 1 does not, so the observability agreement gives
  // rank 1 a per-run fleet recorder hooked into its transport. max-rounds=1
  // makes both ranks throw locally; rank 1's catch-path collective abort
  // reads the hooked recorder's publisher, so the recorder must still be
  // alive there (an ASan build reports a use-after-free otherwise).
  const graph::GenSpec gen = graph::GenSpec::parse("torus:w=12,h=12");
  const algo::Spec& spec = algo::find("mis");
  const algo::Params params =
      algo::Params::parse(spec.params, {{"max-rounds", "1"}});
  const LoopbackReport report =
      run_loopback_ranks(2, [&](LoopbackRank&& lr) -> int {
        obs::Recorder recorder;
        obs::Recorder* const observed = lr.rank == 0 ? &recorder : nullptr;
        InsituConfig config;
        config.rank = lr.rank;
        config.hosts = std::move(lr.hosts);
        config.listen = std::move(lr.listen);
        config.transport = test_options();
        try {
          run_insitu(spec, params, 19, gen, std::move(config), observed);
          return 46;  // must throw on every rank
        } catch (const ds::CheckError& e) {
          return std::string(e.what()).find("max_rounds") !=
                         std::string::npos
                     ? 0
                     : 47;
        }
      });
  EXPECT_EQ(report.rank0, 0);
  ASSERT_EQ(report.peer_exit_codes.size(), 1u);
  EXPECT_EQ(report.peer_exit_codes[0], 0);
}

TEST(InsituRunner, RejectsSpecsWithoutHooks) {
  algo::Spec bare;
  bare.name = "bare";
  bare.input = algo::InputKind::kGeneralGraph;
  EXPECT_THROW(run_insitu(bare, algo::Params::parse({}, {}), 1,
                          graph::GenSpec::parse("torus:w=4,h=4"),
                          InsituConfig{}),
               ds::CheckError);
}

}  // namespace
}  // namespace ds::net
