#pragma once

/// \file rank_loop.hpp
/// The transport-independent run protocol of the distributed executors.
///
/// `dist::DistributedNetwork` (one thread per rank, `ShmTransport`),
/// `net::TcpNetwork` (one OS process per rank,
/// `net::TcpTransport`) and `net::run_insitu` run each rank's share of a
/// run as `run_fleet` around `run_rank_loop` and `gather_outputs`.
/// Factoring them out is what guarantees the runtimes implement the *same*
/// protocol — the transports only move bytes and synchronize; every
/// delivery/ordering/liveness/observability rule lives here, once.
/// `run_rank_loop` is the round protocol:
///
///   1. invoke the (pure per node) factory for the owned range [first,
///      last) only: one `local::ProgramBlock` at local indices;
///   2. per round: owned live nodes send through the unmodified
///      `local::Outbox` (the Partition's delivery table routes cut ports
///      into out-halo staging slots) -> `Transport::ship` -> patch +
///      receive through the unmodified `local::Inbox` ->
///      `Transport::sync_liveness`;
///   3. after the last round: serialize the owned programs' output rows,
///      destroy the block on this rank's thread, and return the rows.
///
/// `gather_outputs` then hands `Transport::gather` the rows, prefixed by
/// this rank's observability block (see below).
///
/// # Gather payload layout (per rank)
///
///     [obs_word_count, obs words..., (row_length, row words...)*]
///
/// The leading block is always present (count 0 when no recorder is
/// installed). It holds what this rank's recorder recorded since
/// `run_fleet` marked it at the start of the run (obs/recorder.hpp).
/// `assemble_outputs` skips it; `run_fleet` merges every *other* rank's
/// block into this rank's recorder, so every rank ends the run holding
/// fleet totals. Keeping the block inside the existing gather stream means
/// per-rank metrics and trace spans ride the same frames/gather vectors as
/// the output rows — no second protocol. It is also how a stats sink sees
/// a fleet's rounds: each rank's kRound spans carry its share of a round's
/// counts, and `local::Executor::run` sums them over the lanes.

#include <cstdint>
#include <functional>
#include <vector>

#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "local/executor.hpp"
#include "local/program.hpp"
#include "local/topology.hpp"
#include "obs/recorder.hpp"

namespace ds::dist {

/// What the round protocol actually needs to know about one rank's share of
/// the instance — a seam between the loop and the topology representation.
/// The classic executors view a fully materialized `NetworkTopology`
/// (global port offsets); the in-situ scale path views only its own node
/// range (rank-local offsets), so a rank never holds the whole graph.
struct RankView {
  /// Global node count (the `env.n` every node observes).
  std::size_t num_nodes = 0;
  /// CSR port offsets indexed by `v - offset_first`; for owned nodes the
  /// difference of adjacent entries is the node's degree and
  /// `port_offsets[v - offset_first] - part.port_base(rank)` is the node's
  /// arena slot.
  const std::size_t* port_offsets = nullptr;
  graph::NodeId offset_first = 0;
  /// Builds the node environment (uid, degree, neighbor row, forked rng)
  /// for one owned node; its pointers borrow tables that outlive the run.
  local::EnvFn env_of;

  /// The view of a fully materialized topology; `topo` must outlive it.
  static RankView of(const local::NetworkTopology& topo);
};

/// The per-run protocol of every distributed rank, in order:
///
///   1. mark `recorder` (when set), so this run's block carries only what
///      the run records;
///   2. `setup` (may be empty): collectives that precede the rounds;
///   3. the observability agreement: one collective sums every rank's
///      "recorder installed" bit; when any rank observes, a rank without
///      `recorder` records into a per-run fleet recorder (the merged export
///      needs one lane per rank);
///   4. `body` with the agreed recorder (null when nobody observes) hooked
///      into the transport; returns the executed round count;
///   5. the merge of every other rank's gathered block into the recorder,
///      and the final live publish.
///
/// A throw in 2-4 becomes a collective `Transport::abort` (the peers wait
/// in an exchange this rank will never join) and is rethrown. The recorder
/// outlives that abort and is unhooked from the transport, which may
/// outlive the run (and the recorder), when the run ends on any path.
std::size_t run_fleet(Transport& transport, obs::Recorder* recorder,
                      const std::function<void()>& setup,
                      const std::function<std::size_t(obs::Recorder*)>& body);

/// What one rank's share of a run leaves behind.
struct RankRun {
  std::size_t rounds = 0;
  /// The owned nodes' output rows, [length, words...] per node in node
  /// order; empty when the run has no OutputFn.
  std::vector<std::uint64_t> rows;
};

/// Runs rank `transport.rank()`'s rounds of one distributed run: construct
/// the owned range's programs, execute rounds, serialize each owned node's
/// row with `output` (when non-empty), then destroy the programs, all on
/// the calling thread. A throw destroys them on the way out too. The round
/// count is identical on every rank by construction. The run's span arena
/// is its own and tags rounds from epoch 1. Throws ds::CheckError when
/// `max_rounds` is hit with unhalted nodes. `recorder`, when non-null,
/// receives this rank's phase spans on lane `transport.rank()` through
/// `obs::RoundInstruments`; each kRound span carries this rank's share of
/// the round's live nodes, messages and payload words.
RankRun run_rank_loop(const RankView& view, const Partition& part,
                      Transport& transport,
                      const local::ProgramFactory& factory,
                      std::size_t max_rounds, const local::OutputFn& output,
                      obs::Recorder* recorder = nullptr);

/// The end-of-run gather every rank makes once per run, after
/// `run_rank_loop`: publishes [obs block, `rows`] (see the file comment)
/// through `Transport::gather`. `recorder` is the one the rank loop ran
/// with; its block is drained into the payload, and the gather span of
/// round `rounds` stays in it.
void gather_outputs(Transport& transport, obs::Recorder* recorder,
                    std::size_t rounds,
                    const std::vector<std::uint64_t>& rows);

/// Assembles the gathered per-node rows ([length, words...] per node, ranks
/// in order) into `out`, skipping each rank's leading observability block.
/// Call after `gather_outputs` on a rank where `Transport::gathered` is
/// valid for every worker; throws on a truncated or trailing-garbage gather
/// stream.
void assemble_outputs(const Transport& transport, const Partition& part,
                      local::OutputTable& out);

}  // namespace ds::dist
