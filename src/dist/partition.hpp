#pragma once

/// \file partition.hpp
/// Topology partitioning of the distributed executors: degree-balanced
/// contiguous node ranges, edge-cut statistics, and the full per-rank
/// sub-view of the port space (local delivery tables plus the cut-edge
/// routing tables of the halo exchange).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/insitu.hpp"
#include "local/topology.hpp"

namespace ds::dist {

/// Splits the nodes of a CSR port-offset table (size n + 1, offsets[n] =
/// total ports) into `num_shards` contiguous ranges of roughly equal total
/// port count. Returns the boundary list b of size num_shards + 1: shard s
/// owns nodes [b[s], b[s+1]), b[0] = 0, b[num_shards] = n, and the
/// boundaries are non-decreasing — every node lands in exactly one shard.
/// Falls back to node-balanced splitting when the graph has no edges.
std::vector<graph::NodeId> degree_balanced_boundaries(
    std::span<const std::size_t> port_offsets, std::size_t num_shards);

/// Edge-cut statistics of a contiguous node partition.
struct PartitionStats {
  std::size_t parts = 0;           ///< number of ranges
  std::size_t cut_edges = 0;       ///< edges with endpoints in two ranges
  std::size_t internal_edges = 0;  ///< edges with both endpoints in one range
  /// Largest range's directed-port count over the ideal equal share
  /// (total_ports / parts); 1.0 = perfectly balanced. Node-count based when
  /// the graph has no edges; 1.0 for the empty graph.
  double balance_factor = 1.0;
};

/// Computes edge-cut statistics for the contiguous partition described by
/// `boundaries` (size parts + 1, as produced by
/// `degree_balanced_boundaries`).
PartitionStats partition_stats(const graph::Graph& g,
                               std::span<const std::size_t> port_offsets,
                               const std::vector<graph::NodeId>& boundaries);

/// A partition of a `NetworkTopology` into `num_workers` contiguous
/// degree-balanced node ranges, with everything a worker needs to run its
/// sub-network:
///
///  * **local delivery table** — for each owned directed port (v, p), the
///    slot in the worker's *local* span arena that a message sent by v on p
///    is delivered to. Internal edges map to the worker's own port range
///    (global delivery slot minus the worker's port base); cut edges map to
///    dedicated *out-halo* slots appended after the local port range, so the
///    unmodified `local::Outbox` writes cut traffic into a staging area the
///    transport ships from.
///  * **halo links** — for every ordered worker pair (s, d), the canonical
///    (identically ordered on both sides) list of cut ports s sends to d:
///    s's out-halo slot and d's local destination slot. The transport walks
///    these to serialize and deliver halo messages without any per-message
///    routing metadata.
class Partition {
 public:
  /// One ordered pair's cut-port routing table. `src_out_slots[i]` indexes
  /// the source worker's out-halo region (0-based, i.e. local arena slot
  /// `num_local_ports(s) + src_out_slots[i]`); `dst_slots[i]` is the
  /// destination worker's local arena slot for the same cut port. Both
  /// vectors share one canonical order: source nodes ascending, ports
  /// ascending.
  struct HaloLink {
    std::vector<std::uint32_t> src_out_slots;
    std::vector<std::uint32_t> dst_slots;
  };

  /// Partitions `topo` into `num_workers` >= 1 degree-balanced ranges.
  Partition(const local::NetworkTopology& topo, std::size_t num_workers);

  /// Builds rank `rank`'s slice of the partition from *local knowledge
  /// only*: the global range boundaries plus the rank-local CSR (full
  /// adjacency rows of the owned nodes, each ascending — the canonical
  /// layout of the in-situ generators). Produces a Partition whose own-rank
  /// delivery table, out-halo region and incoming `link(s, rank)` dst
  /// columns are *identical* to the full constructor's on a canonically
  /// sorted topology, with `port_base(rank) == 0` (arena slots are local
  /// offsets). Pieces that require remote knowledge — other ranks' delivery
  /// tables, outgoing dst columns, `stats()` beyond the part count — stay
  /// empty; transports on the in-situ path only read the populated ones.
  static Partition rank_local(const std::vector<graph::NodeId>& bounds,
                              std::size_t rank, const graph::LocalCsr& csr);

  [[nodiscard]] std::size_t num_workers() const { return num_workers_; }
  [[nodiscard]] const std::vector<graph::NodeId>& boundaries() const {
    return bounds_;
  }
  [[nodiscard]] const PartitionStats& stats() const { return stats_; }

  /// Owning worker of node v (binary search over the boundaries).
  [[nodiscard]] std::size_t owner(graph::NodeId v) const;

  [[nodiscard]] graph::NodeId first_node(std::size_t w) const {
    return bounds_[w];
  }
  [[nodiscard]] graph::NodeId last_node(std::size_t w) const {
    return bounds_[w + 1];
  }
  [[nodiscard]] std::size_t num_nodes(std::size_t w) const {
    return last_node(w) - first_node(w);
  }
  /// First global flat port slot of worker w's range.
  [[nodiscard]] std::size_t port_base(std::size_t w) const {
    return port_base_[w];
  }
  /// Directed ports owned by worker w (sum of its nodes' degrees).
  [[nodiscard]] std::size_t num_local_ports(std::size_t w) const {
    return port_base_[w + 1] - port_base_[w];
  }
  /// Outgoing cut ports of worker w (= its out-halo staging slots).
  [[nodiscard]] std::size_t num_out_halo(std::size_t w) const {
    return static_cast<std::size_t>(out_halo_counts_[w]);
  }
  /// Worker w's local delivery table, one 32-bit entry per owned directed
  /// port in CSR order; see the class comment. The `local::Outbox` row of
  /// owned node v starts at index `topo.port_offset(v) - port_base(w)`.
  [[nodiscard]] const std::vector<std::uint32_t>& local_delivery(
      std::size_t w) const {
    return local_delivery_[w];
  }
  /// The cut-port routing table of ordered pair (src, dst). Empty when no
  /// edge crosses from src to dst.
  [[nodiscard]] const HaloLink& link(std::size_t src, std::size_t dst) const {
    return links_[src * num_workers_ + dst];
  }

 private:
  Partition() = default;  // rank_local fills the members directly

  std::size_t num_workers_ = 0;
  std::vector<graph::NodeId> bounds_;      ///< size num_workers + 1
  std::vector<std::size_t> port_base_;     ///< size num_workers + 1
  std::vector<std::uint32_t> out_halo_counts_;
  std::vector<std::vector<std::uint32_t>> local_delivery_;
  std::vector<HaloLink> links_;            ///< dense num_workers^2 table
  PartitionStats stats_;
};

}  // namespace ds::dist
