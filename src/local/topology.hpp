#pragma once

/// \file topology.hpp
/// Per-network setup shared by every LOCAL-model executor:
///
///  * the **port structure** — the graph's CSR offsets, borrowed — and its
///    **delivery slots** (`delivery_slots`): where a message sent on each
///    port lands. Both depend on the graph alone; each executor computes
///    the slots once, into the one routing table its round loop reads;
///  * the **identity** of a run — UIDs per `IdStrategy` (none under
///    sequential IDs, where a UID is the node id) and the master generator
///    every node's coins fork from — depends on (ids, seed) and is
///    re-derived by each run before it constructs programs.
///
/// The sequential `Network` and the distributed executors
/// (`dist::DistributedNetwork`, `net::TcpNetwork`) all build on this, and
/// every node environment, in situ too, comes from `node_env`, so ID
/// assignment and per-node randomness derivation are identical by
/// construction — a prerequisite for the executors' bit-identical-output
/// contract.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "local/ids.hpp"
#include "local/program.hpp"
#include "support/rng.hpp"

namespace ds::local {

/// The delivery slot of every directed port of `g`, in CSR order (node v
/// owns the slots [offsets[v], offsets[v + 1]), one per port): entry
/// offsets[v] + p is the slot a message sent by v on its port p lands in,
/// the slot of the reverse port at the neighbor. O(n + m); throws unless
/// `g` has fewer than 2^32 directed ports, since slots are 32-bit.
std::vector<std::uint32_t> delivery_slots(const graph::Graph& g);

/// The construction environment of node v in an n-node network: `row` is
/// its adjacency row (`degree` node ids), its UID is `uids[v]`, or v where
/// `uids` is null (sequential IDs), and its coins are `master.fork(uid)`.
/// Pure, so the order nodes are built in does not matter.
NodeEnv node_env(graph::NodeId v, std::size_t n, const graph::NodeId* row,
                 std::size_t degree, const std::uint64_t* uids,
                 const Rng& master);

/// The borrowed port structure plus the current run identity of one
/// communication graph.
class NetworkTopology {
 public:
  /// Borrows the graph's offsets. No identity is assigned yet: call
  /// `assign_identity` before `make_env`.
  explicit NetworkTopology(const graph::Graph& g) : graph_(&g) {}

  /// The port structure plus the identity of one run: the one-argument
  /// constructor followed by `assign_identity(strategy, seed)`.
  NetworkTopology(const graph::Graph& g, IdStrategy strategy,
                  std::uint64_t seed)
      : graph_(&g) {
    assign_identity(strategy, seed);
  }

  /// (Re)derives the run identity: UIDs per `strategy` and the master
  /// generator of the node coins, both from `seed`. Sequential IDs free
  /// the UID table of an earlier run instead of filling one.
  void assign_identity(IdStrategy strategy, std::uint64_t seed);

  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// First flat slot of node v; port_offsets()[n] == total_ports().
  [[nodiscard]] std::size_t port_offset(graph::NodeId v) const {
    return graph_->offsets()[v];
  }
  /// The full CSR port-offset table (size n + 1): the graph's own offsets,
  /// since port slots follow the adjacency rows. port_offsets()[v] is the
  /// first flat slot of node v. Used for degree-balanced shard splitting.
  [[nodiscard]] std::span<const std::size_t> port_offsets() const {
    return graph_->offsets();
  }
  /// Total number of directed ports (= sum of degrees = 2m).
  [[nodiscard]] std::size_t total_ports() const {
    return 2 * graph_->num_edges();
  }

  /// Builds the construction environment of node v through `node_env`,
  /// with the run's UID table (null under sequential IDs). Pure: callable
  /// from any thread, any order, always yielding the same environment for
  /// the same identity. Throws before the first `assign_identity`.
  [[nodiscard]] NodeEnv make_env(graph::NodeId v) const;

 private:
  const graph::Graph* graph_;
  /// Master generator the per-node streams are forked from (fork is pure).
  Rng master_;
  /// The random and degree strategies' UIDs; empty under sequential IDs.
  std::vector<std::uint64_t> uids_;
  bool identified_ = false;  ///< set by assign_identity
};

}  // namespace ds::local
