// Tests for the writer-style message path: Outbox/Inbox semantics (empty
// messages, max-degree nodes, per-port varying lengths, broadcast, contract
// violations), degree-balanced shard boundaries on skewed graphs, the
// zero-allocation guarantee of the send path of the sequential executor
// and of the rank loop on thread ranks, allocation-free trial-coloring
// rounds, and setup and program construction without per-node heap blocks
// (asserted through a global operator-new counting hook — this binary must
// not be merged with other test binaries), the 32-bit span bound and the
// epoch wrap.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <vector>

#include "coloring/randcolor.hpp"
#include "dist/partition.hpp"
#include "graph/bipartite.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "graph/io.hpp"
#include "graph/multigraph.hpp"
#include "local/message_arena.hpp"
#include "local/network.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"
#include "mis/mis.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

// ---- Global allocation counter -------------------------------------------
// Counts every scalar/array non-aligned heap allocation in the binary, on
// every thread. The steady-state round loop of both the sequential executor
// and the rank loop must not allocate when running writer-API programs,
// which the AllocationCounting tests assert by comparing the allocation
// counts of a short and a long run.

// GCC pairs the replaced operator new (malloc-backed) with the free() in the
// replaced operator delete and misreports a mismatch at every delete site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ds {
namespace {

/// The executor `--runtime=parallel --threads=threads` builds.
std::shared_ptr<local::Executor> threaded(const graph::Graph& g,
                                          std::size_t threads) {
  runtime::RuntimeConfig config;
  config.kind = runtime::RuntimeKind::kParallel;
  config.threads = threads;
  return runtime::make_executor_factory(config)(g);
}

// ---- Outbox / Inbox unit tests -------------------------------------------

TEST(Outbox, WriteStreamsAndCounts) {
  local::WordBank bank;
  std::vector<local::MessageSpan> spans(4);
  const std::uint32_t slots[4] = {2, 0, 3, 1};  // scattered delivery slots
  local::Outbox out(&bank, 7, spans.data(), slots, 4, 42);
  EXPECT_EQ(out.degree(), 4u);

  out.write(0, {10, 11});         // whole message at once
  out.push(2, 20);                // streaming writes, port 1 stays empty
  out.push(2, 21);
  out.push(2, 22);
  out.write(3, nullptr, 0);       // explicitly empty message

  EXPECT_EQ(out.messages(), 2u);
  EXPECT_EQ(out.payload_words(), 5u);

  // Spans land in the delivery slots, tagged with the epoch.
  EXPECT_EQ(spans[2].length, 2u);   // port 0 -> slot 2
  EXPECT_EQ(spans[2].epoch, 42u);
  EXPECT_EQ(spans[2].bank, 7u);
  EXPECT_EQ(spans[0].epoch, 0u);    // port 1 never written
  EXPECT_EQ(spans[3].length, 3u);   // port 2 -> slot 3
  EXPECT_EQ(spans[1].length, 0u);   // port 3 written but empty
  EXPECT_EQ(spans[1].epoch, 42u);
  EXPECT_EQ(bank, (local::WordBank{10, 11, 20, 21, 22}));
}

TEST(Outbox, BroadcastStoresPayloadOnce) {
  local::WordBank bank;
  std::vector<local::MessageSpan> spans(3);
  const std::uint32_t slots[3] = {0, 1, 2};
  local::Outbox out(&bank, 0, spans.data(), slots, 3, 5);
  out.broadcast({1, 2, 3});
  EXPECT_EQ(bank.size(), 3u);  // payload deduplicated across ports
  EXPECT_EQ(out.messages(), 3u);        // but accounted per delivery
  EXPECT_EQ(out.payload_words(), 9u);
  for (const local::MessageSpan& s : spans) {
    EXPECT_EQ(s.offset, 0u);
    EXPECT_EQ(s.length, 3u);
    EXPECT_EQ(s.epoch, 5u);
  }
}

TEST(Outbox, ContractViolationsThrow) {
  local::WordBank bank;
  std::vector<local::MessageSpan> spans(3);
  const std::uint32_t slots[3] = {0, 1, 2};
  {
    local::Outbox out(&bank, 0, spans.data(), slots, 3, 1);
    EXPECT_THROW(out.write(3, {1}), ds::CheckError);  // port out of range
  }
  {
    local::Outbox out(&bank, 0, spans.data(), slots, 3, 1);
    out.write(1, {1});
    EXPECT_THROW(out.write(0, {2}), ds::CheckError);  // decreasing order
    EXPECT_THROW(out.write(1, {2}), ds::CheckError);  // double write
    EXPECT_THROW(out.push(1, 2), ds::CheckError);  // extend finalized message
  }
  {
    local::Outbox out(&bank, 0, spans.data(), slots, 3, 1);
    out.write(0, {1});
    EXPECT_THROW(out.broadcast({2}), ds::CheckError);  // broadcast after write
  }
  {
    local::Outbox out(&bank, 0, spans.data(), slots, 3, 1);
    out.broadcast({2});
    EXPECT_THROW(out.write(2, {1}), ds::CheckError);  // write after broadcast
  }
}

TEST(Outbox, RefusesMessagesPastTheSpanBound) {
  // Span offsets and lengths are 32-bit, so a bank holds fewer than 2^32
  // words. The check comes before the bank grows: this test never
  // allocates 32 GB, and the refused message leaves bank and span as they
  // were.
  local::WordBank bank = {1};
  std::vector<local::MessageSpan> spans(1);
  const std::uint32_t slots[1] = {0};
  const std::vector<std::uint64_t> word = {7};
  {
    local::Outbox out(&bank, 0, spans.data(), slots, 1, 3);
    EXPECT_THROW(out.write(0, word.data(), 1ull << 32), ds::CheckError);
    EXPECT_EQ(bank.size(), 1u);
    EXPECT_EQ(spans[0].epoch, 0u);
    out.write(0, word.data(), 1);  // the port is still writable
    EXPECT_EQ(spans[0].length, 1u);
  }
  {
    local::Outbox out(&bank, 0, spans.data(), slots, 1, 4);
    EXPECT_THROW(out.broadcast(word.data(), 1ull << 32), ds::CheckError);
    EXPECT_EQ(bank.size(), 2u);
    EXPECT_EQ(spans[0].epoch, 3u);
  }
}

TEST(SpanArena, EpochWrapUntagsEverySpan) {
  // The epoch is 32-bit. At the wrap the arena resets every span to epoch 0
  // and restarts at 1, so no span written before the wrap — in the last
  // round, or in an early round of the previous cycle — reads as current
  // after it.
  local::SpanArena arena(2, UINT32_MAX - 1);
  local::WordBank bank;
  const std::uint32_t slots[2] = {0, 1};
  const std::uint32_t last = arena.advance();
  ASSERT_EQ(last, UINT32_MAX);
  {
    local::Outbox early(&bank, 0, arena.data(), slots, 2, 1);
    early.write(1, {8});  // a leftover of the previous cycle's epoch 1
    local::Outbox out(&bank, 0, arena.data(), slots, 2, last);
    out.write(0, {5, 6});
  }
  const std::uint64_t* bases[1] = {bank.data()};
  EXPECT_EQ(local::Inbox(arena.data(), 2, bases, last)[0].size(), 2u);

  const std::uint32_t epoch = arena.advance();
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(arena.data()[0].epoch, 0u);
  EXPECT_EQ(arena.data()[1].epoch, 0u);
  bank.clear();
  {
    local::Outbox out(&bank, 0, arena.data(), slots, 2, epoch);
    out.write(0, {9});
  }
  bases[0] = bank.data();
  const local::Inbox inbox(arena.data(), 2, bases, epoch);
  ASSERT_EQ(inbox[0].size(), 1u);  // written after the wrap
  EXPECT_EQ(inbox[0][0], 9u);
  EXPECT_TRUE(inbox[1].empty());  // written before it
}

TEST(Inbox, EpochTagFiltersStaleSpans) {
  local::WordBank bank = {7, 8, 9};
  std::vector<local::MessageSpan> spans(2);
  spans[0] = {.offset = 0, .length = 2, .epoch = 4, .bank = 0};  // fresh
  spans[1] = {.offset = 2, .length = 1, .epoch = 3, .bank = 0};  // stale
  const std::uint64_t* bases[1] = {bank.data()};
  local::Inbox inbox(spans.data(), 2, bases, 4);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].size(), 2u);
  EXPECT_EQ(inbox[0][0], 7u);
  EXPECT_EQ(inbox[0][1], 8u);
  EXPECT_TRUE(inbox[1].empty());  // stale span reads as "nothing arrived"
}

// ---- End-to-end writer semantics on an executor --------------------------

/// Writes a self-describing message of varying length per port: the header
/// carries (sender uid, declared extra words k), followed by k pattern
/// words; port p is skipped entirely when (uid + p) % 5 == 0. The receiver
/// validates structure and provenance of every message — on a star graph
/// this covers a max-degree hub writing all ports in one round.
class VaryingLengthProgram final : public local::NodeProgram {
 public:
  explicit VaryingLengthProgram(const local::NodeEnv& env) : env_(env) {}

  void send(std::size_t /*round*/, local::Outbox& out) override {
    for (std::size_t p = 0; p < env_.degree; ++p) {
      if ((env_.uid + p) % 5 == 0) continue;  // empty message on this port
      const std::uint64_t extra = (env_.uid + p) % 4;
      out.push(p, env_.uid);
      out.push(p, extra);
      for (std::uint64_t i = 0; i < extra; ++i) {
        out.push(p, env_.uid ^ (i + 1));
      }
    }
  }

  void receive(std::size_t /*round*/, const local::Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const local::MessageView msg = inbox[p];
      const std::uint64_t sender = env_.neighbor_uid(p);
      // The sender skipped *its* port toward us iff (sender_uid + q) % 5 == 0
      // for its port q — we cannot compute q locally, so accept empty, but a
      // non-empty message must be structurally valid and from the right
      // neighbor.
      if (msg.empty()) {
        ++empties_;
        continue;
      }
      ASSERT_GE(msg.size(), 2u);
      EXPECT_EQ(msg[0], sender);
      const std::uint64_t extra = msg[1];
      ASSERT_EQ(msg.size(), 2 + extra);
      for (std::uint64_t i = 0; i < extra; ++i) {
        EXPECT_EQ(msg[2 + i], sender ^ (i + 1));
      }
      ++validated_;
    }
    done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::size_t validated() const { return validated_; }
  [[nodiscard]] std::size_t empties() const { return empties_; }
  [[nodiscard]] std::uint64_t uid() const { return env_.uid; }

 private:
  local::NodeEnv env_;
  std::size_t validated_ = 0;
  std::size_t empties_ = 0;
  bool done_ = false;
};

/// Runs VaryingLengthProgram on `exec`, an executor over `g`.
void expect_varying_lengths_deliver(local::Executor& exec,
                                    const graph::Graph& g,
                                    local::IdStrategy ids,
                                    std::uint64_t seed) {
  const local::RunResult run = exec.run(
      local::programs<VaryingLengthProgram>([](const local::NodeEnv& env) {
        return VaryingLengthProgram(env);
      }),
      [](graph::NodeId, const local::NodeProgram& p,
         std::vector<std::uint64_t>& out) {
        const auto& program = static_cast<const VaryingLengthProgram&>(p);
        out.push_back(program.validated());
        out.push_back(program.empties());
        out.push_back(program.uid());
      },
      ids, seed, 4);
  std::size_t validated = 0;
  std::size_t empties = 0;
  std::size_t expected_nonempty = 0;
  ASSERT_EQ(run.outputs.size(), g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const local::MessageView row = run.outputs.row(v);
    validated += row[0];
    empties += row[1];
    for (std::size_t q = 0; q < g.degree(v); ++q) {
      if ((row[2] + q) % 5 != 0) ++expected_nonempty;
    }
  }
  EXPECT_EQ(validated, expected_nonempty);
  EXPECT_EQ(validated + empties, 2 * g.num_edges());
}

TEST(WriterApi, VaryingLengthsOnStarMaxDegreeHub) {
  // Star: the hub writes num_nodes - 1 ports of different lengths in one
  // send; every leaf has degree 1.
  std::vector<graph::Edge> spokes;
  for (graph::NodeId v = 1; v < 64; ++v) spokes.push_back({0, v});
  const graph::Graph g(64, std::move(spokes));
  for (std::size_t threads : {1, 2, 8}) {
    const auto par = threaded(g, threads);
    expect_varying_lengths_deliver(*par, g,
                                   local::IdStrategy::kRandomPermutation, 3);
  }
  local::Network seq(g);
  expect_varying_lengths_deliver(seq, g,
                                 local::IdStrategy::kRandomPermutation, 3);
}

TEST(WriterApi, VaryingLengthsOnGnp) {
  Rng rng(21);
  const auto g = graph::gen::gnp(300, 0.02, rng);
  local::Network seq(g);
  expect_varying_lengths_deliver(seq, g, local::IdStrategy::kSequential, 11);
  const auto par = threaded(g, 4);
  expect_varying_lengths_deliver(*par, g, local::IdStrategy::kSequential, 11);
}

// ---- Degree-balanced shard boundaries ------------------------------------

TEST(DegreeBalancedShards, SplitsByPortCountNotNodeCount) {
  // One hub owning 100 of 104 ports: with 2 shards the boundary must land
  // right after the hub instead of at the node midpoint.
  const std::vector<std::size_t> offsets = {0, 100, 101, 102, 103, 104};
  const auto bounds = dist::degree_balanced_boundaries(offsets, 2);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 1u);  // hub alone in shard 0
  EXPECT_EQ(bounds[2], 5u);
}

TEST(DegreeBalancedShards, NoEdgesFallsBackToNodeBalance) {
  const std::vector<std::size_t> offsets(9, 0);  // 8 isolated nodes
  const auto bounds = dist::degree_balanced_boundaries(offsets, 4);
  const std::vector<graph::NodeId> expected = {0, 2, 4, 6, 8};
  EXPECT_EQ(bounds, expected);
}

TEST(DegreeBalancedShards, CoverSkewedGraphsExactlyOnce) {
  // Regression: on skewed (Barabási–Albert) degree distributions the
  // boundaries must stay monotone and cover every node exactly once, and no
  // shard may exceed its fair port share by more than one node's degree
  // (the boundary granularity).
  Rng rng(77);
  const auto g = graph::gen::barabasi_albert(5000, 4, rng);
  const local::NetworkTopology topo(g, local::IdStrategy::kSequential, 1);
  const auto offsets = topo.port_offsets();
  const std::size_t max_deg = g.max_degree();
  for (std::size_t shards : {1, 2, 3, 7, 16, 64}) {
    const auto bounds = dist::degree_balanced_boundaries(offsets, shards);
    ASSERT_EQ(bounds.size(), shards + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), g.num_nodes());
    for (std::size_t s = 0; s < shards; ++s) {
      ASSERT_LE(bounds[s], bounds[s + 1]);  // monotone => exactly-once cover
      const std::size_t ports = offsets[bounds[s + 1]] - offsets[bounds[s]];
      EXPECT_LE(ports, topo.total_ports() / shards + max_deg)
          << "shard " << s << "/" << shards << " overloaded";
    }
  }
}

// ---- Zero-allocation send path -------------------------------------------

/// Minimal writer-API gossip with a configurable round budget; its
/// steady-state rounds touch no heap.
class FixedRoundGossip final : public local::NodeProgram {
 public:
  FixedRoundGossip(const local::NodeEnv& env, std::size_t rounds)
      : env_(env), rounds_(rounds), acc_(env.uid) {}

  void send(std::size_t, local::Outbox& out) override {
    out.broadcast({acc_});
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const local::MessageView msg = inbox[p];
      if (!msg.empty()) acc_ ^= msg[0] * 0x9E3779B97F4A7C15ull;
    }
    done_ = round + 1 >= rounds_;
  }

  [[nodiscard]] bool done() const override { return done_; }

 private:
  local::NodeEnv env_;
  std::size_t rounds_;
  std::uint64_t acc_;
  bool done_ = false;
};

local::ProgramFactory fixed_round_factory(std::size_t rounds) {
  return local::programs<FixedRoundGossip>(
      [rounds](const local::NodeEnv& env) {
        return FixedRoundGossip(env, rounds);
      });
}

/// Allocations of one run() with the given round budget.
std::size_t allocations_of_run(local::Executor& exec, std::size_t rounds) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  exec.run(fixed_round_factory(rounds), {}, local::IdStrategy::kSequential, 9,
           rounds + 1);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationCounting, SequentialSendPathIsZeroAllocPerRound) {
  const auto g = graph::gen::torus(24, 24);
  local::Network net(g);
  // Warm the arena to its high-water mark.
  net.run(fixed_round_factory(48), {}, local::IdStrategy::kSequential, 9, 49);
  const std::size_t short_run = allocations_of_run(net, 8);
  const std::size_t long_run = allocations_of_run(net, 48);
  // Per-run allocations (program construction) are identical; 40 extra
  // rounds must add exactly nothing.
  EXPECT_EQ(long_run, short_run);
}

TEST(AllocationCounting, ParallelSendPathIsZeroAllocPerRound) {
  // Thread ranks run `dist::run_rank_loop`, the loop TCP, in-situ and
  // served runs share, and the hook counts every rank's allocations: the
  // per-run ones (threads, programs, arenas) are equal for both runs, so
  // 40 extra rounds must add exactly nothing on any rank.
  const auto g = graph::gen::torus(24, 24);
  for (std::size_t threads : {1, 2, 4}) {
    const auto net = threaded(g, threads);
    net->run(fixed_round_factory(48), {}, local::IdStrategy::kSequential, 9,
             49);
    const std::size_t short_run = allocations_of_run(*net, 8);
    const std::size_t long_run = allocations_of_run(*net, 48);
    EXPECT_EQ(long_run, short_run) << "threads=" << threads;
  }
}

TEST(AllocationCounting, TrialColoringRoundsAllocateNothing) {
  // A sequential `color` run: once the word bank reached its high-water
  // mark, a round allocates nothing — the trial draw counts and walks the
  // palette instead of building a vector of options per undecided node.
  const auto g = graph::gen::torus(32, 32);
  std::vector<std::size_t> after_round;
  after_round.reserve(1024);
  const local::ExecutorFactory sequential = runtime::make_executor_factory(
      runtime::RuntimeConfig{}, [&](const local::RoundStats&) {
        after_round.push_back(g_allocations.load(std::memory_order_relaxed));
      });
  const auto outcome = coloring::randomized_coloring(
      g, 7, nullptr, 10000, local::IdStrategy::kSequential, sequential);
  ASSERT_GE(after_round.size(), 3u);
  EXPECT_EQ(outcome.executed_rounds, after_round.size());
  for (std::size_t r = 2; r < after_round.size(); ++r) {
    EXPECT_EQ(after_round[r] - after_round[r - 1], 0u) << "round " << r;
  }
}

TEST(AllocationCounting, SetupAllocatesPerInstanceNotPerNode) {
  // A generated instance is one CSR image (a handful of flat arrays, not a
  // vector per node), and a node environment borrows its neighbor row and
  // the UID table instead of copying them.
  const graph::DistributedGenerator dg(
      graph::GenSpec::parse("torus:w=64,h=64"), 7);
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const graph::Graph g = dg.generate_full();
  const std::size_t generate =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LT(generate, 32u);

  const local::NetworkTopology topo(g, local::IdStrategy::kSequential, 7);
  std::size_t ports = 0;
  before = g_allocations.load(std::memory_order_relaxed);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ports += topo.make_env(v).degree;
  }
  const std::size_t envs =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(envs, 0u);
  EXPECT_EQ(ports, topo.total_ports());
}

TEST(AllocationCounting, BuildingAGraphAllocatesPerInstanceNotPerNode) {
  // The constructor collects nothing per node: a generator's edge list and
  // a text reader's both become one image of three flat arrays.
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const graph::Graph g = graph::gen::torus(64, 64);
  const std::size_t generate =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LT(generate, 32u);

  std::stringstream text;
  graph::io::write_edge_list(text, g);
  before = g_allocations.load(std::memory_order_relaxed);
  const graph::Graph read = graph::io::read_edge_list(text);
  const std::size_t parse =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LT(parse, 32u);
  EXPECT_EQ(read.num_edges(), g.num_edges());

  // The same holds for a bipartite instance, a view of its unified image,
  // and for a Multigraph, one incidence image: 6,000 nodes, 16,000 edges.
  Rng rng(7);
  const graph::BipartiteGraph b =
      graph::gen::random_biregular(2000, 4000, 8, rng);
  ASSERT_EQ(b.num_edges(), 16000u);
  const auto allocations = [](const auto& build) {
    const std::size_t start = g_allocations.load(std::memory_order_relaxed);
    build();
    return g_allocations.load(std::memory_order_relaxed) - start;
  };
  std::stringstream bipartite_text;
  graph::io::write_bipartite(bipartite_text, b);
  std::size_t parsed = 0;
  EXPECT_LT(allocations([&] {
              parsed = graph::io::read_bipartite(bipartite_text).num_edges();
            }),
            32u);
  EXPECT_EQ(parsed, b.num_edges());
  EXPECT_LT(allocations([&] {
              (void)graph::bipartite_from_unified(b.unified(), b.num_left());
            }),
            32u);
  std::vector<bool> keep(b.num_edges(), false);
  for (std::size_t e = 0; e < keep.size(); e += 2) keep[e] = true;
  EXPECT_LT(allocations([&] { (void)b.filter_edges(keep); }), 32u);
  std::size_t components = 0;
  EXPECT_LT(allocations([&] {
              components = graph::connected_components(b).size();
            }),
            32u);
  EXPECT_EQ(components, 1u);
  const graph::EdgeView unified = b.unified().edges();
  std::vector<graph::Edge> edges(unified.begin(), unified.end());
  EXPECT_LT(allocations([&] {
              (void)graph::Multigraph(b.num_nodes(), std::move(edges));
            }),
            32u);
}

TEST(AllocationCounting, ProgramsAreOneBlockPerRank) {
  // A whole `mis` or `color` call — executor build, run, outputs — builds
  // each rank's programs as one block. Quadrupling the nodes may add only
  // the growth steps of a few flat buffers (bank, halo, gather), never an
  // allocation per node: 3,072 more programs once cost 3,072 (`mis`) and
  // 6,144 (`color`, whose palettes were heap blocks) more allocations.
  const auto allocations = [](const graph::Graph& g, bool color,
                              const local::ExecutorFactory& executor) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    if (color) {
      coloring::randomized_coloring(g, 7, nullptr, 10000,
                                    local::IdStrategy::kSequential, executor);
    } else {
      mis::luby(g, 7, nullptr, 10000, local::IdStrategy::kSequential,
                executor);
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  const auto small = graph::gen::torus(32, 32);
  const auto large = graph::gen::torus(64, 64);
  for (const std::size_t threads : {0, 2, 4}) {
    local::ExecutorFactory executor;  // empty: the sequential executor
    if (threads > 0) {
      runtime::RuntimeConfig config;
      config.kind = runtime::RuntimeKind::kParallel;
      config.threads = threads;
      executor = runtime::make_executor_factory(config);
    }
    for (const bool color : {false, true}) {
      const std::size_t at_small = allocations(small, color, executor);
      const std::size_t at_large = allocations(large, color, executor);
      EXPECT_LE(at_large, at_small + 32)
          << (color ? "color" : "mis") << " threads=" << threads;
    }
  }
}

TEST(Topology, BorrowsTheGraphOffsets) {
  const auto g = graph::gen::torus(8, 8);
  const local::NetworkTopology topo(g);
  EXPECT_EQ(topo.port_offsets().data(), g.offsets().data());
  EXPECT_EQ(topo.port_offsets().size(), g.num_nodes() + 1);
  EXPECT_EQ(topo.total_ports(), 2 * g.num_edges());
}

TEST(AllocationCounting, HookObservesPerRoundAllocations) {
  // Sanity check that the counting hook actually observes the message path:
  // a program that heap-allocates its payload every round must count
  // strictly more over a longer run.
  class AllocatingGossip final : public local::NodeProgram {
   public:
    AllocatingGossip(const local::NodeEnv& env, std::size_t rounds)
        : degree_(env.degree), rounds_(rounds) {}
    void send(std::size_t, local::Outbox& out) override {
      const std::vector<std::uint64_t> payload(4, degree_);
      for (std::size_t p = 0; p < degree_; ++p) {
        out.write(p, payload.data(), payload.size());
      }
    }
    void receive(std::size_t round, const local::Inbox&) override {
      done_ = round + 1 >= rounds_;
    }
    [[nodiscard]] bool done() const override { return done_; }

   private:
    std::size_t degree_;
    std::size_t rounds_;
    bool done_ = false;
  };
  const auto g = graph::gen::torus(8, 8);
  local::Network net(g);
  auto factory = [](std::size_t rounds) {
    return local::programs<AllocatingGossip>(
        [rounds](const local::NodeEnv& env) {
          return AllocatingGossip(env, rounds);
        });
  };
  net.run(factory(16), {}, local::IdStrategy::kSequential, 9, 17);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  net.run(factory(4), {}, local::IdStrategy::kSequential, 9, 5);
  const std::size_t short_run =
      g_allocations.load(std::memory_order_relaxed) - before;
  const std::size_t mid = g_allocations.load(std::memory_order_relaxed);
  net.run(factory(16), {}, local::IdStrategy::kSequential, 9, 17);
  const std::size_t long_run =
      g_allocations.load(std::memory_order_relaxed) - mid;
  EXPECT_GT(long_run, short_run);
}

}  // namespace
}  // namespace ds
