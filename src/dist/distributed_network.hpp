#pragma once

/// \file distributed_network.hpp
/// The single-host multi-rank LOCAL-model executor (`--runtime=parallel`).
///
/// `DistributedNetwork` partitions the topology into degree-balanced
/// contiguous rank ranges (`dist::Partition`) once, at construction, and
/// executes each run on N thread ranks: the calling thread is rank 0, and
/// `run()` assigns the run's identity, then spawns ranks 1..N-1 as
/// `std::thread`s. Read-only state — graph, topology and the run's UIDs
/// (none under sequential IDs), the partition and its one delivery table
/// and halo links — is shared by the threads; the shared
/// mutable state is the control block (barrier, abort flag, per-rank
/// liveness slots) and the per-rank halo buffers and gather vectors of the
/// `HaloTransport`, all owned here and reached through one `ShmTransport`
/// view per rank.
///
/// Every round runs the same three-step protocol in each rank:
///
///   1. **local send** — owned live nodes serialize through the unmodified
///      `local::Outbox` into the rank's private word bank and local span
///      arena; the Partition's local delivery table routes internal edges
///      into the rank's own port range and cut edges into out-halo
///      staging slots, one contiguous range per peer;
///   2. **halo exchange** — the staged cut messages are copied into the
///      rank's halo buffer (`HaloTransport::ship`), a barrier, then each
///      rank patches its span arena onto the peers' halo words and points
///      its bank-base table at them (`patch`; the Inbox reads them in
///      place);
///   3. **receive** — owned live nodes read through the unmodified
///      `local::Inbox`; a second barrier publishes the round's liveness
///      counts and keeps the next round's ship from overwriting halo
///      buffers still being read.
///
/// Programs need zero modification: they see the same Outbox/Inbox API and
/// the same message words as under the sequential `Network`.
///
/// Each rank runs its share through `dist::run_fleet` around
/// `run_rank_loop`, exactly like a TCP rank (rank_loop.hpp); ranks 1..N-1
/// record into per-run recorders on rank 0's timebase, and every rank
/// merges the other ranks' blocks after the gather, so rank 0 ends the run
/// holding fleet totals and every rank's round spans — which is where a
/// stats sink's `RoundStats` come from. Spawn and join stay here.
///
/// # Determinism contract
///
/// For a fixed (graph, IdStrategy, seed), DistributedNetwork produces
/// bit-identical per-node program outputs, round counts and RoundStats to
/// `local::Network` at every rank count: topology/UIDs/randomness are the
/// shared pure constructions, each rank has the (pure per node) factory
/// build one block for its own range only, and the halo exchange transports
/// message words verbatim with the executor's barriers reproducing the
/// send-then-receive phase order. tests/test_dist.cpp and
/// tests/test_runtime.cpp assert the contract at 1/2/4/8 ranks.
///
/// # Output collection
///
/// Per-node results come back in the `RunResult`: each rank applies the
/// run's `OutputFn` to its owned programs, destroys them on its own thread
/// and gathers the words; rank 0 assembles the table once every rank has
/// joined. No program outlives the run.

#include <cstdint>

#include "dist/partition.hpp"
#include "dist/shm.hpp"
#include "dist/shm_transport.hpp"
#include "graph/graph.hpp"
#include "local/cost.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/program.hpp"
#include "local/topology.hpp"

namespace ds::dist {

/// Knobs of one DistributedNetwork.
struct DistributedConfig {
  /// Rank count; 0 = hardware concurrency, and the resolved value is
  /// clamped to the node count (an empty range would still pay spawn +
  /// barrier costs). Rank 0 is the calling thread, so a resolved count of 1
  /// spawns nothing.
  std::size_t workers = 0;
};

/// Multi-rank synchronous executor on a fixed communication graph.
class DistributedNetwork final : public local::Executor {
 public:
  /// Builds the executor's port structure and partition over `g`, once;
  /// each `run()` assigns its identity and spawns a fresh set of rank
  /// threads.
  explicit DistributedNetwork(const graph::Graph& g,
                              DistributedConfig config = {});

  /// Rank threads hold `this`.
  DistributedNetwork(const DistributedNetwork&) = delete;
  DistributedNetwork& operator=(const DistributedNetwork&) = delete;

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
  local::RunResult execute(const local::ProgramFactory& factory,
                           const local::OutputFn& output,
                           local::IdStrategy ids, std::uint64_t seed,
                           std::size_t max_rounds,
                           obs::Recorder* rec) override;

  /// The full per-rank run: binds a `ShmTransport` view for rank w and
  /// executes the shared `run_fleet` protocol around `run_rank_loop` and
  /// `gather_outputs`, recording into `rec`. Returns the executed round
  /// count (identical in every rank).
  std::size_t run_worker(std::size_t w, const local::ProgramFactory& factory,
                         const local::OutputFn& output,
                         std::size_t max_rounds, obs::Recorder* rec);

  /// Ranks 1..N-1 as threads; returns rank 0's round count once every rank
  /// has joined. Every failure is left in the control block's abort state.
  std::size_t run_threads(const local::ProgramFactory& factory,
                          const local::OutputFn& output,
                          std::size_t max_rounds, obs::Recorder* rec);

  local::NetworkTopology topology_;
  Partition partition_;
  HaloTransport transport_;
  ControlBlock control_;
};

}  // namespace ds::dist
