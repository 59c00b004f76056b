#pragma once

/// \file graph.hpp
/// Undirected simple graph used as the communication network and as the
/// problem instance for the general-graph problems (splitting, coloring,
/// MIS, sinkless orientation).
///
/// A Graph is in one of two storage modes:
///
///  * **owned** — the historical mutable representation: per-node adjacency
///    vectors plus the edge list, grown by `add_node`/`add_edge`;
///  * **mapped** — a read-only CSR image owned by a keepalive handle: an
///    mmapped `.dsg` file (graph/format.hpp), which costs O(1) to open and
///    whose pages every rank of a process shares read-only, or a generator
///    image (`DistributedGenerator::generate_full`, three flat arrays built
///    in one pass, no per-node heap block). A copy of a mapped Graph shares
///    the image.
///
/// Both modes serve the same accessors; `neighbors()`/`edges()` return
/// lightweight views (`NeighborView`/`EdgeView`) valid for the Graph's
/// lifetime. Mutation is owned-mode only.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace ds::graph {

/// Node identifier: dense index in [0, num_nodes()).
using NodeId = std::uint32_t;

/// Undirected edge as an (endpoint, endpoint) pair with u <= v. The layout
/// is part of the on-disk `.dsg` format (graph/format.hpp).
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 8, "Edge layout is part of the .dsg format");

/// Read-only view over one node's adjacency row (contiguous NodeId run).
/// Returned by value; the pointed-to storage lives as long as the Graph.
class NeighborView {
 public:
  NeighborView() = default;
  NeighborView(const NodeId* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] const NodeId* begin() const { return data_; }
  [[nodiscard]] const NodeId* end() const { return data_ + size_; }
  [[nodiscard]] const NodeId* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  NodeId operator[](std::size_t i) const { return data_[i]; }

 private:
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Read-only view over the edge list (insertion order).
class EdgeView {
 public:
  EdgeView() = default;
  EdgeView(const Edge* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] const Edge* begin() const { return data_; }
  [[nodiscard]] const Edge* end() const { return data_ + size_; }
  [[nodiscard]] const Edge* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  const Edge& operator[](std::size_t i) const { return data_[i]; }

 private:
  const Edge* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Undirected simple graph (no self-loops, no parallel edges). Nodes are
/// dense indices; unique LOCAL-model IDs are assigned separately (see
/// local/ids.hpp) so experiments can control ID adversaries.
class Graph {
 public:
  /// Creates an owned-mode graph with `n` isolated nodes.
  explicit Graph(std::size_t n = 0);

  /// Adopts a read-only CSR image — an mmapped `.dsg` or a generator
  /// image — as a mapped graph. `offsets` has n + 1 entries with
  /// offsets[n] == 2m, `adjacency` the 2m flattened rows, `edges` the m
  /// edges in insertion order; `keepalive` owns the backing memory (the
  /// mmap region or the image's arrays) and is held for the lifetime of
  /// the graph and of every copy.
  static Graph mapped(std::shared_ptr<const void> keepalive,
                      const std::uint64_t* offsets, const NodeId* adjacency,
                      const Edge* edges, std::size_t n, std::size_t m);

  /// True when this graph views a read-only CSR image (an mmapped `.dsg`
  /// or a generator image); such a graph is immutable.
  [[nodiscard]] bool is_mapped() const { return map_.keepalive != nullptr; }

  /// Adds an isolated node and returns its id. Owned mode only.
  NodeId add_node();

  /// Adds the undirected edge {u, v}. Requires u != v, both in range, and
  /// that the edge is not already present. Owned mode only.
  void add_edge(NodeId u, NodeId v);

  /// True if {u, v} is an edge. O(min degree).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t num_nodes() const {
    return is_mapped() ? map_.n : adjacency_.size();
  }
  [[nodiscard]] std::size_t num_edges() const {
    return is_mapped() ? map_.m : edges_.size();
  }

  /// Neighbors of `v` in insertion order.
  [[nodiscard]] NeighborView neighbors(NodeId v) const;

  [[nodiscard]] std::size_t degree(NodeId v) const;

  /// Maximum degree Δ; 0 for the empty graph.
  [[nodiscard]] std::size_t max_degree() const;

  /// Minimum degree δ; 0 for the empty graph.
  [[nodiscard]] std::size_t min_degree() const;

  /// All edges, in insertion order.
  [[nodiscard]] EdgeView edges() const {
    return is_mapped() ? EdgeView(map_.edges, map_.m)
                       : EdgeView(edges_.data(), edges_.size());
  }

  /// Returns the subgraph induced by `nodes`, together with the mapping from
  /// new node ids to the original ids (`new -> old`).
  [[nodiscard]] std::pair<Graph, std::vector<NodeId>> induced_subgraph(
      const std::vector<NodeId>& nodes) const;

 private:
  /// Mapped-mode state; keepalive non-null iff mapped.
  struct MappedCsr {
    std::shared_ptr<const void> keepalive;
    const std::uint64_t* offsets = nullptr;  ///< n + 1 entries
    const NodeId* adjacency = nullptr;       ///< 2m entries
    const Edge* edges = nullptr;             ///< m entries
    std::size_t n = 0;
    std::size_t m = 0;
  };

  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<Edge> edges_;
  MappedCsr map_;
};

}  // namespace ds::graph
