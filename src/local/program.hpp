#pragma once

/// \file program.hpp
/// The node-program abstraction of the LOCAL-model simulator: the per-node
/// environment, the `NodeProgram` interface that algorithms implement, and
/// the `ProgramFactory` every executor builds programs with. Split out of
/// network.hpp so that every executor (sequential, thread ranks, TCP ranks)
/// runs the same program API.
///
/// A node's program depends only on its own environment — its ID, its ports
/// and its private coins — exactly as in the LOCAL model. The distributed
/// executors rely on this: each rank constructs only the programs of the
/// nodes it owns.

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>

#include "graph/graph.hpp"
#include "local/message_arena.hpp"
#include "support/rng.hpp"

namespace ds::local {

/// Read-only environment a node program is constructed with. Trivially
/// copyable: a program may keep a copy at no heap cost. Its two pointers
/// borrow the executor's tables — its graph and the run's UIDs in its
/// `NetworkTopology`, or on the in-situ path the rank-local CSR. The
/// executor owns its programs and frees them when its next run starts,
/// which replaces the UID table, so a program reads both for as long as it
/// runs; a destructor reads neither.
struct NodeEnv {
  graph::NodeId node = 0;        ///< dense index of this node
  std::uint64_t uid = 0;         ///< unique LOCAL-model identifier
  std::size_t n = 0;             ///< number of nodes (global knowledge)
  std::size_t degree = 0;        ///< this node's degree
  /// This node's adjacency row (`degree` node ids, indexed by port).
  const graph::NodeId* neighbors = nullptr;
  /// UID table indexed by node id, or nullptr where uid == node id (the
  /// in-situ path).
  const std::uint64_t* uids = nullptr;
  /// Private randomness stream of this node.
  Rng rng{0};

  /// UID of the neighbor on port p.
  [[nodiscard]] std::uint64_t neighbor_uid(std::size_t p) const {
    const graph::NodeId w = neighbors[p];
    return uids != nullptr ? uids[w] : w;
  }
};
static_assert(std::is_trivially_copyable_v<NodeEnv>);

/// Per-node program. One round = send() at every node, message delivery,
/// then receive() at every node. A node that returns true from done() stops
/// being scheduled; the run ends when all nodes are done.
///
/// Programs serialize straight into the executor's message arenas through
/// the writer-style `send(round, Outbox&)` / `receive(round, Inbox&)` pair
/// (zero heap allocation per round).
///
/// Executor contract (holds for every executor in the library): within one
/// round, all send() calls complete before any receive() observes a message,
/// and distinct nodes' programs may be invoked concurrently. A program must
/// therefore only touch its own state — which the LOCAL model demands
/// anyway — and all executors then produce bit-identical per-node outputs
/// for the same (graph, IdStrategy, seed).
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Serializes the outgoing message of each port into `out` (ports in
  /// increasing order, unwritten ports send the empty message). Called once
  /// per round until done.
  virtual void send(std::size_t round, Outbox& out) = 0;

  /// Receives the messages that arrived this round, indexed by port. The
  /// views borrow executor memory and are valid only during the call.
  virtual void receive(std::size_t round, const Inbox& inbox) = 0;

  /// True when this node has halted (its output is final).
  [[nodiscard]] virtual bool done() const = 0;
};

/// Factory producing the program for one node given its environment. It
/// must be pure per node — a function of `env` and immutable captured state
/// only: a distributed rank calls it for its owned nodes alone, so no
/// cross-node call order is promised, and thread ranks call it
/// concurrently.
using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(const NodeEnv&)>;

}  // namespace ds::local
