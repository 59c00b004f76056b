#pragma once

/// \file distributed_network.hpp
/// The single-host multi-rank LOCAL-model executor.
///
/// `DistributedNetwork` partitions the topology into degree-balanced
/// contiguous rank ranges (`dist::Partition`) and executes each run on N
/// ranks: the calling thread is rank 0, and `run()` spawns ranks 1..N-1
/// either as threads of the caller (`RankSpawn::kThread`,
/// `--runtime=parallel`) or as forked processes (`RankSpawn::kProcess`,
/// plain POSIX `fork`, no MPI; `--runtime=mp`). Read-only state — graph,
/// topology, partition, routing tables — is shared by the threads or
/// inherited copy-on-write by the children; the only shared mutable state
/// is the control block (barrier, abort flag, per-rank round counters) and
/// the halo-exchange blocks, both mapped MAP_SHARED before any spawn, so
/// both spawns run over the same `ShmTransport`.
///
/// Every round runs the same three-step protocol in each rank:
///
///   1. **local send** — owned live nodes serialize through the unmodified
///      `local::Outbox` into the rank's private word bank and local span
///      arena; the Partition's local delivery table routes internal edges
///      into the rank's own port range and cut edges into out-halo
///      staging slots;
///   2. **halo exchange** — the staged cut messages are shipped into the
///      per-pair shared blocks (`HaloTransport::ship`), a barrier, then
///      each rank patches its span arena straight onto the peers' shared
///      payload areas (`patch`, zero-copy);
///   3. **receive** — owned live nodes read through the unmodified
///      `local::Inbox`; a second barrier publishes the round's liveness
///      counters and keeps the next round's sends from overwriting blocks
///      still being read.
///
/// Programs need zero modification: they see the same Outbox/Inbox API and
/// the same message words as under the sequential `Network`.
///
/// Each rank runs its share through `dist::run_fleet` around
/// `run_rank_loop`, exactly like a TCP rank (rank_loop.hpp). A forked
/// child marks its inherited recorder when its run starts, so it ships only
/// what it records; a thread rank records into a per-run recorder on rank
/// 0's timebase. Every rank merges the other ranks' blocks after the
/// gather, so rank 0 ends the run holding fleet totals. Spawn, join, reap
/// and kill stay here.
///
/// # Determinism contract
///
/// For a fixed (graph, IdStrategy, seed), DistributedNetwork produces
/// bit-identical per-node program outputs, round counts and RoundStats to
/// `local::Network` at every rank count and either spawn:
/// topology/UIDs/randomness are the shared pure constructions, each rank
/// invokes the (pure per node) factory for its own range only, and the
/// halo exchange transports message words verbatim with the executor's
/// barriers reproducing the send-then-receive phase order.
/// tests/test_dist.cpp and tests/test_runtime.cpp assert the contract at
/// 1/2/4 forked and 1/2/8 thread ranks.
///
/// # Output collection
///
/// Per-node results reach the caller through the `Executor` output-gather
/// contract: install a serializer with `set_output_fn` *before* `run()`
/// (each rank applies it to its owned programs and ships the words), then
/// read `outputs()`. `program(v)` serves every node on thread ranks; forked
/// ranks die with the run, so there it serves rank 0's own range only and
/// throws for nodes owned by other ranks.

#include <sys/types.h>

#include <cstdint>
#include <functional>
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

/// How `DistributedNetwork::run` spawns ranks 1..N-1.
enum class RankSpawn : std::uint8_t {
  kProcess,  ///< one forked worker process per rank (`--runtime=mp`)
  kThread,   ///< one thread of the caller per rank (`--runtime=parallel`)
};

/// Knobs of one DistributedNetwork.
struct DistributedConfig {
  /// Rank count; 0 = hardware concurrency, and the resolved value is
  /// clamped to the node count (an empty range would still pay spawn +
  /// barrier costs). Rank 0 is the calling thread, so a resolved count of 1
  /// spawns nothing.
  std::size_t workers = 0;
  /// Threads or forked processes; `runtime::select` picks it from the
  /// runtime name.
  RankSpawn spawn = RankSpawn::kProcess;
  /// Reserved halo payload words per cut port and round (virtual memory
  /// only). A round whose cut traffic exceeds the reservation throws.
  std::size_t halo_words_per_port = 256;
  /// Reserved serialized-output words per node for the end-of-run gather.
  std::size_t gather_words_per_node = 64;
};

/// Multi-rank synchronous executor on a fixed communication graph.
class DistributedNetwork final : public local::Executor {
 public:
  /// Builds the executor over `g` with IDs per `strategy` and per-node
  /// randomness derived from `seed`. Partitioning and the shared mappings
  /// are set up here, once; each `run()` spawns a fresh rank fleet.
  DistributedNetwork(const graph::Graph& g, local::IdStrategy strategy,
                     std::uint64_t seed, DistributedConfig config = {});

  std::size_t run(const local::ProgramFactory& factory,
                  std::size_t max_rounds,
                  local::CostMeter* meter = nullptr) override;

  /// Every node's program on thread ranks; on forked ranks only rank 0's
  /// own range (the calling process). Use `outputs()` for
  /// executor-portable result extraction.
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

  /// Rank count a `workers` config value resolves to (0 -> hardware
  /// concurrency, minimum 1). Shared with the runtime selection layer.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t workers);

  /// The instance-level rank count: `resolve_workers` clamped to the node
  /// count, exactly what the constructor partitions by — use this when
  /// reporting per-instance diagnostics.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t workers,
                                                   std::size_t num_nodes);

 private:
  /// The full per-rank run: binds a `ShmTransport` view for rank w and
  /// executes the shared `run_fleet` + `run_rank_loop` protocol into
  /// `programs_[w]`, advancing `epoch` once per round and recording into
  /// `rec`. Returns the executed round count (identical in every rank).
  /// `idle_poll` is passed to the shared barrier (forked rank 0 only).
  std::size_t run_worker(std::size_t w, const local::ProgramFactory& factory,
                         std::size_t max_rounds, std::uint64_t& epoch,
                         obs::Recorder* rec,
                         const std::function<void()>* idle_poll);

  /// Ranks 1..N-1 as threads; returns rank 0's round count. Every failure
  /// is left in the control block's abort state.
  std::size_t run_threads(const local::ProgramFactory& factory,
                          std::size_t max_rounds);

  /// Ranks 1..N-1 as forked workers; returns rank 0's round count. Throws
  /// on any failure after tearing the fleet down.
  std::size_t run_forked(const local::ProgramFactory& factory,
                         std::size_t max_rounds);

  /// Forked rank 0's barrier poll: reaps crashed children and raises the
  /// abort flag so every waiter unblocks.
  void poll_children(const std::vector<pid_t>& children);

  local::NetworkTopology topology_;
  DistributedConfig config_;
  Partition partition_;
  HaloTransport transport_;
  SharedRegion control_region_;
  ControlBlock* control_;
  /// Resident programs per rank (its owned range, at local indices). With
  /// forked ranks only rank 0's are filled in the calling process.
  std::vector<std::vector<std::unique_ptr<local::NodeProgram>>> programs_;
  /// Children already reaped by the barrier poll (forked rank 0 only).
  std::vector<bool> reaped_;
  /// Monotone round tag; never reset across runs. Forked ranks start from
  /// the value inherited at fork and thread ranks from a copy, so every
  /// rank tags identically.
  std::uint64_t epoch_ = 0;
  local::RoundStatsSink sink_;
};

}  // namespace ds::dist
