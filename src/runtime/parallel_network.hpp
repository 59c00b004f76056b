#pragma once

/// \file parallel_network.hpp
/// Sharded multi-threaded LOCAL-model executor.
///
/// `ParallelNetwork` runs the same `NodeProgram`/`ProgramFactory` API as the
/// sequential `local::Network`, but partitions the nodes into contiguous
/// *degree-balanced* shards (split by CSR port count, not node count)
/// executed on a fixed thread pool. Messages travel through the writer-style
/// arena of local/message_arena.hpp:
///
///  * each shard owns a double-buffered *word bank* it bump-writes payload
///    words into — cleared (capacity kept) at the start of its send phase,
///    so steady-state rounds perform zero heap allocation;
///  * a double-buffered flat *span arena* holds one `MessageSpan` per
///    directed port; the span for a message sent by v on port p lives at
///    `topology.delivery_slot(v, p)` — each slot has exactly one writer, so
///    shards write disjoint memory;
///  * spans carry a monotone epoch tag; receivers ignore spans whose tag is
///    not the round being received, so halted neighbors' stale slots need no
///    clearing and executor reuse needs no arena reset.
///
/// Rounds are *fused*: one pool epoch (= one barrier) per round runs, for
/// every node of a shard, receive(r-1) against the previous round's arena
/// and then send(r) into the current one. Double buffering is what makes
/// this legal — round r's writers and round r-1's readers touch different
/// arenas — and it halves the barriers of the classic
/// send-barrier-receive-barrier schedule.
///
/// # Determinism contract
///
/// For a fixed (graph, IdStrategy, seed), ParallelNetwork produces
/// **bit-identical** per-node program outputs and round counts to
/// `local::Network`, at every thread count. This is by construction:
///  * topology, UIDs and reverse ports come from the same shared
///    `NetworkTopology`;
///  * each node's randomness is the pure `fork(seed, uid)` — independent of
///    scheduling;
///  * programs are constructed by the (pure per node) factory, one thread
///    at a time;
///  * message delivery is span-indexed into single-writer slots, and the
///    fused epoch's barrier separates round r-1's receives (and round r's
///    sends) from round r's receives;
///  * per node, receive(r-1) still strictly precedes send(r), so the
///    per-node call sequence equals the sequential executor's;
///  * node programs only touch their own state (the LOCAL model).
/// tests/test_runtime.cpp asserts the contract at 1/2/8 threads on gnp,
/// torus, biregular and skewed Barabási–Albert instances.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "graph/graph.hpp"
#include "local/cost.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/message_arena.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"
#include "obs/perf.hpp"
#include "runtime/thread_pool.hpp"

namespace ds::runtime {

/// Multi-threaded synchronous executor on a fixed communication graph.
/// Shard boundaries come from `dist::degree_balanced_boundaries` — the same
/// splitting rule the multi-process `dist::DistributedNetwork` partitions
/// by.
class ParallelNetwork final : public local::Executor {
 public:
  /// Builds the executor over `g` with IDs per `strategy` and per-node
  /// randomness derived from `seed`, running on `num_threads` threads
  /// (0 = hardware concurrency). The calling thread participates, so
  /// `num_threads == 1` uses no extra threads.
  ParallelNetwork(const graph::Graph& g, local::IdStrategy strategy,
                  std::uint64_t seed, std::size_t num_threads = 0);

  std::size_t run(const local::ProgramFactory& factory,
                  std::size_t max_rounds,
                  local::CostMeter* meter = nullptr) override;

  [[nodiscard]] const local::NodeProgram& program(
      graph::NodeId v) const override;

  [[nodiscard]] const local::NetworkTopology& topology() const override {
    return topology_;
  }

  [[nodiscard]] std::size_t num_threads() const {
    return pool_.num_threads();
  }

  /// Thread count a `num_threads` constructor argument resolves to
  /// (0 -> hardware concurrency, minimum 1). Shared with the runtime
  /// selection layer so reported and actual parallelism always agree.
  [[nodiscard]] static std::size_t resolve_threads(std::size_t num_threads);

  void set_stats_sink(local::RoundStatsSink sink) override {
    sink_ = std::move(sink);
  }

  /// Degree-balanced shard boundaries (size num_shards + 1), for tests and
  /// diagnostics.
  [[nodiscard]] const std::vector<graph::NodeId>& shard_boundaries() const {
    return bounds_;
  }

  /// Edge-cut statistics of the shard split (same struct the multi-process
  /// executor reports for its partition).
  [[nodiscard]] dist::PartitionStats shard_stats() const {
    return dist::partition_stats(topology_.graph(), topology_.port_offsets(),
                                 bounds_);
  }

 private:
  /// Per-shard accumulators, merged on the run() thread at the barrier.
  struct ShardCounters {
    std::size_t senders = 0;
    std::size_t messages = 0;
    std::size_t payload_words = 0;
    std::size_t not_done = 0;
    /// Epoch busy time of this shard (µs), measured only when the plan is
    /// `timed` — the straggler gap between max and min busy_us is the
    /// imbalance the degree-balanced split is supposed to bound.
    std::uint64_t start_us = 0;
    std::uint64_t busy_us = 0;
    /// Hardware-counter samples bracketing the shard's busy window, taken
    /// from the worker thread's thread-local counter group (observed runs
    /// only). The run() thread turns the pair into per-shard epoch deltas
    /// and the round's summed totals.
    obs::PerfSample perf_begin;
    obs::PerfSample perf_end;
  };
  /// What one fused pool epoch does; written by run() before the epoch,
  /// read by the workers (the pool's epoch handoff orders the accesses).
  struct EpochPlan {
    bool recv = false;   ///< run receive(round - 1) first
    bool send = false;   ///< then run send(round)
    bool timed = false;  ///< measure per-shard busy time (stats/obs on)
    std::size_t round = 0;          ///< the round being *sent*
    std::uint64_t send_epoch = 0;   ///< tag for spans written this epoch
    std::uint64_t recv_epoch = 0;   ///< tag the received round's writers used
    local::MessageSpan* write_spans = nullptr;
    const local::MessageSpan* read_spans = nullptr;
    std::size_t write_buffer = 0;   ///< word-bank parity of the sends
  };

  /// Runs one fused epoch for shard `s` per the current plan_.
  void run_epoch_shard(std::size_t s);

  local::NetworkTopology topology_;
  ThreadPool pool_;
  /// Contiguous degree-balanced shard boundaries, size num_shards + 1.
  std::vector<graph::NodeId> bounds_;
  /// Double-buffered per-shard word banks: banks_[parity][shard].
  std::vector<local::WordBank> banks_[2];
  /// Double-buffered span arenas, each sized total_ports().
  std::vector<local::MessageSpan> span_arenas_[2];
  /// Read-side bank base pointers of the epoch in flight, indexed by shard.
  std::vector<const std::uint64_t*> read_bases_;
  std::vector<ShardCounters> counters_;
  std::vector<std::unique_ptr<local::NodeProgram>> programs_;
  EpochPlan plan_;
  /// Monotone round tag shared by both arenas; never reset across runs.
  std::uint64_t epoch_ = 0;
  local::RoundStatsSink sink_;
};

}  // namespace ds::runtime
