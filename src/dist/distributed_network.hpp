#pragma once

/// \file distributed_network.hpp
/// Multi-process LOCAL-model executor.
///
/// `DistributedNetwork` partitions the topology into degree-balanced
/// contiguous worker ranges (`dist::Partition`) and executes each run on N
/// OS processes: the calling process is worker 0 and `run()` forks workers
/// 1..N-1 (plain POSIX `fork`, no MPI). Read-only state — graph, topology,
/// partition, routing tables — is inherited copy-on-write; the only shared
/// mutable state is the control block (barrier, abort flag, per-worker
/// round counters) and the halo-exchange blocks, both mapped
/// MAP_SHARED before any fork.
///
/// Every round runs the same three-step protocol in each worker:
///
///   1. **local send** — owned live nodes serialize through the unmodified
///      `local::Outbox` into the worker's private word bank and local span
///      arena; the Partition's local delivery table routes internal edges
///      into the worker's own port range and cut edges into out-halo
///      staging slots;
///   2. **halo exchange** — the staged cut messages are shipped into the
///      per-pair shared blocks (`HaloTransport::ship`), a barrier, then
///      each worker patches its span arena straight onto the peers' shared
///      payload areas (`patch`, zero-copy);
///   3. **receive** — owned live nodes read through the unmodified
///      `local::Inbox`; a second barrier publishes the round's liveness
///      counters and keeps the next round's sends from overwriting blocks
///      still being read.
///
/// Programs need zero modification: they see the same Outbox/Inbox API and
/// the same message words as under the sequential `Network`.
///
/// Each worker runs its share through `dist::run_fleet` around
/// `run_rank_loop`, exactly like a TCP rank (rank_loop.hpp). A child marks
/// its fork-inherited recorder when its run starts, so it ships only what
/// it records; every worker merges the other workers' blocks after the
/// gather, so worker 0 — the calling process — ends the run holding fleet
/// totals. Fork, reap and kill stay here.
///
/// # Determinism contract
///
/// For a fixed (graph, IdStrategy, seed), DistributedNetwork produces
/// bit-identical per-node program outputs, round counts and RoundStats to
/// `local::Network` at every worker count: topology/UIDs/randomness are the
/// shared pure constructions, each worker invokes the (pure per node)
/// factory for its own range only, and the halo exchange transports message
/// words verbatim with the executor's barriers reproducing the
/// send-then-receive phase order. tests/test_dist.cpp asserts the contract
/// at 1/2/4 workers.
///
/// # Output collection
///
/// Worker processes die with the run, so per-node results cross back to the
/// calling process through the `Executor` output-gather contract: install a
/// serializer with `set_output_fn` *before* `run()` (each worker applies it
/// to its owned programs and ships the words), then read `outputs()`.
/// `program(v)` is only resident for worker 0's own range and throws for
/// nodes owned by other workers.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/partition.hpp"
#include "dist/shm.hpp"
#include "dist/shm_transport.hpp"
#include "graph/graph.hpp"
#include "local/cost.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/message_arena.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"

namespace ds::dist {

/// Knobs of one DistributedNetwork.
struct DistributedConfig {
  /// Worker process count; 0 = hardware concurrency, and the resolved
  /// value is clamped to the node count (an empty range would still pay
  /// fork + barrier costs). Worker 0 is the calling process, so a resolved
  /// count of 1 forks nothing.
  std::size_t workers = 0;
  /// Reserved halo payload words per cut port and round (virtual memory
  /// only). A round whose cut traffic exceeds the reservation throws.
  std::size_t halo_words_per_port = 256;
  /// Reserved serialized-output words per node for the end-of-run gather.
  std::size_t gather_words_per_node = 64;
};

/// Multi-process synchronous executor on a fixed communication graph.
class DistributedNetwork final : public local::Executor {
 public:
  /// Builds the executor over `g` with IDs per `strategy` and per-node
  /// randomness derived from `seed`. Partitioning and the shared mappings
  /// are set up here, once; each `run()` forks a fresh worker fleet.
  DistributedNetwork(const graph::Graph& g, local::IdStrategy strategy,
                     std::uint64_t seed, DistributedConfig config = {});

  std::size_t run(const local::ProgramFactory& factory,
                  std::size_t max_rounds,
                  local::CostMeter* meter = nullptr) override;

  /// Only resident for nodes owned by worker 0 (the calling process); use
  /// `outputs()` for executor-portable result extraction.
  [[nodiscard]] const local::NodeProgram& program(
      graph::NodeId v) const override;

  [[nodiscard]] const local::NetworkTopology& topology() const override {
    return topology_;
  }

  void set_stats_sink(local::RoundStatsSink sink) override {
    sink_ = std::move(sink);
  }

  [[nodiscard]] std::size_t num_workers() const {
    return partition_.num_workers();
  }

  /// The node partition (ranges, halo routing tables, edge-cut stats).
  [[nodiscard]] const Partition& partition() const { return partition_; }

  /// Worker count a `workers` config value resolves to (0 -> hardware
  /// concurrency, minimum 1). Shared with the runtime selection layer.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t workers);

  /// The instance-level worker count: `resolve_workers` clamped to the node
  /// count, exactly what the constructor partitions by — use this when
  /// reporting per-instance diagnostics.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t workers,
                                                   std::size_t num_nodes);

 private:
  /// The full per-worker run: binds a `ShmTransport` view for worker w and
  /// executes the shared `run_fleet` + `run_rank_loop` protocol. Runs in
  /// the calling process for w == 0 and in a forked child otherwise;
  /// returns the executed round count (identical in every worker).
  /// `children` is non-empty only in worker 0, which polls them while
  /// waiting so a crashed worker aborts the run instead of hanging it.
  std::size_t run_worker(std::size_t w, const local::ProgramFactory& factory,
                         std::size_t max_rounds,
                         const std::vector<pid_t>& children);

  /// Worker 0's barrier poll: reaps crashed children and raises the abort
  /// flag so every waiter unblocks.
  void poll_children(const std::vector<pid_t>& children);

  local::NetworkTopology topology_;
  DistributedConfig config_;
  Partition partition_;
  HaloTransport transport_;
  SharedRegion control_region_;
  ControlBlock* control_;
  /// Worker 0's resident programs (its owned range, at local indices).
  std::vector<std::unique_ptr<local::NodeProgram>> programs_;
  /// Children already reaped by the barrier poll (worker 0 only).
  std::vector<bool> reaped_;
  /// Monotone round tag; never reset across runs (workers start from the
  /// value inherited at fork, so all processes tag identically).
  std::uint64_t epoch_ = 0;
  local::RoundStatsSink sink_;
};

}  // namespace ds::dist
