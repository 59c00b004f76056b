#pragma once

/// \file network.hpp
/// Synchronous LOCAL-model simulator (sequential reference executor).
///
/// The LOCAL model [Lin92, Pel00]: a synchronous message-passing network on a
/// graph where, in every round, each node may send an arbitrarily large
/// message to each neighbor, receive its neighbors' messages, and update its
/// state. Nodes know n and carry unique IDs; each node has a private
/// randomness stream derived from (seed, node), so executions are
/// reproducible and independent of scheduling order.
///
/// Algorithms are written as per-node `NodeProgram`s (local/program.hpp);
/// `Network::run` builds them as one `ProgramBlock` over [0, n) — the
/// sequential executor is one rank owning every node — executes them
/// round-synchronously, serializes their outputs and destroys them on the
/// calling thread, and returns the rows with the number of rounds until
/// all nodes halted. With a recorder installed, each round's send and
/// receive phases and the round itself become trace spans through
/// `obs::RoundInstruments`, stamped at the phase boundaries as the rank
/// loop's are. Messages travel through the writer-style arena of
/// local/message_arena.hpp: one word bank plus a span per directed port, so
/// steady-state rounds allocate nothing on the message path.
/// Higher-level algorithms that the paper treats as black boxes are not run
/// through this interface; they account *charged* rounds on a `CostMeter`
/// instead (see cost.hpp).
///
/// It is the independent reference the other executors are checked
/// against: multi-core and multi-host runs of the same programs go through
/// the distributed rank loop (dist/rank_loop.hpp); every executor shares
/// `NetworkTopology` and `delivery_slots` and is bit-identical in output
/// (the `Executor` determinism contract). Here the whole network is one
/// rank, so the delivery slots are the routing table as they are.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/cost.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/message_arena.hpp"
#include "local/program.hpp"
#include "local/topology.hpp"

namespace ds::local {

/// Sequential synchronous executor on a fixed communication graph. The
/// reference implementation every other executor is validated against.
class Network final : public Executor {
 public:
  /// Builds the delivery table of `g`; each run assigns its own identity.
  explicit Network(const graph::Graph& g);

 private:
  RunResult execute(const ProgramFactory& factory, const OutputFn& output,
                    IdStrategy ids, std::uint64_t seed, std::size_t max_rounds,
                    obs::Recorder* rec) override;

  NetworkTopology topology_;
  /// `delivery_slots(g)`: the routing table every Outbox writes through.
  std::vector<std::uint32_t> delivery_;
  /// Single word bank (the whole network is one "shard") + span per port.
  WordBank bank_;
  /// Kept across runs: its epoch keeps advancing, so a reused executor
  /// needs no clearing (the arena's wrap resets it).
  SpanArena arena_;
};

}  // namespace ds::local
