#pragma once

/// \file topology.hpp
/// Per-network setup shared by every LOCAL-model executor, in two parts:
///
///  * the **port structure** — the graph's CSR offsets, borrowed, and
///    precomputed 32-bit delivery slots — depends on the graph alone and is
///    built once per executor. Slots are 32-bit, so every executor supports
///    fewer than 2^32 directed ports (the constructor checks);
///  * the **identity** of a run — UIDs per `IdStrategy` and the master
///    generator every node's coins fork from — depends on (ids, seed) and
///    is re-derived by each run before it constructs programs.
///
/// The sequential `Network` and the distributed executors
/// (`dist::DistributedNetwork`, `net::TcpNetwork`) all build on this, so ID
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

/// Precomputed port tables plus the current run identity of one
/// communication graph.
///
/// Ports are laid out in CSR form: node v owns the flat slot range
/// [port_offset(v), port_offset(v) + degree(v)), one slot per incident edge
/// in adjacency-list order. `delivery_slot(v, p)` is the flat slot that a
/// message sent by v on its port p lands in — i.e. the slot of the reverse
/// port at the neighbor — which lets executors deliver into flat per-round
/// buffers without any per-node indirection.
class NetworkTopology {
 public:
  /// Precomputes the port tables in O(n + m); throws unless `g` has fewer
  /// than 2^32 directed ports. No identity is assigned yet: call
  /// `assign_identity` before `uids` or `make_env`.
  explicit NetworkTopology(const graph::Graph& g);

  /// The port tables plus the identity of one run: the one-argument
  /// constructor followed by `assign_identity(strategy, seed)`.
  NetworkTopology(const graph::Graph& g, IdStrategy strategy,
                  std::uint64_t seed);

  /// (Re)derives the run identity: UIDs per `strategy` and the master
  /// generator of the node coins, both from `seed`. The port tables are
  /// untouched.
  void assign_identity(IdStrategy strategy, std::uint64_t seed);

  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
  [[nodiscard]] const std::vector<std::uint64_t>& uids() const { return uids_; }

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

  /// Flat slot a message sent by v on port p is delivered into: the
  /// neighbor's port offset plus the index of v in the neighbor's list.
  [[nodiscard]] std::size_t delivery_slot(graph::NodeId v,
                                          std::size_t p) const {
    return delivery_slots_[port_offset(v) + p];
  }
  /// Node v's row of delivery slots (degree(v) entries), the table an
  /// `Outbox` routes through. Valid as a one-past-the-end pointer for
  /// degree-0 nodes.
  [[nodiscard]] const std::uint32_t* delivery_row(graph::NodeId v) const {
    return delivery_slots_.data() + port_offset(v);
  }

  /// Builds the construction environment of node v, including its private
  /// randomness stream fork(seed, uid). Pure: callable from any thread, any
  /// order, always yielding the same environment for the same identity.
  [[nodiscard]] NodeEnv make_env(graph::NodeId v) const;

 private:
  const graph::Graph* graph_;
  /// Master generator the per-node streams are forked from (fork is pure).
  Rng master_;
  std::vector<std::uint64_t> uids_;
  /// delivery_slots_[port_offset(v) + p]: the flat destination slot.
  std::vector<std::uint32_t> delivery_slots_;
};

}  // namespace ds::local
