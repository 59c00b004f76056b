#pragma once

/// \file graph.hpp
/// Undirected simple graph used as the communication network and as the
/// problem instance for the general-graph problems (splitting, coloring,
/// MIS, sinkless orientation).
///
/// A Graph is one immutable CSR image: three flat arrays behind a shared
/// keepalive handle, which a copy shares rather than duplicates.
///
///  * offsets — n + 1 × u64, offsets[0] == 0, non-decreasing,
///    offsets[n] == 2m;
///  * adjacency — 2m × NodeId, row v at [offsets[v], offsets[v + 1]);
///  * edges — m × Edge, each with u < v < n, in insertion order.
///
/// Row v lists v's neighbors in edge order: walking the edges with one
/// cursor per node meets each endpoint at the next slot of its row, which
/// is what lets NetworkTopology pair ports in one pass. No row lists a
/// neighbor twice. The image comes from the one constructor (a counting
/// pass over an edge list, which every generator, reader and transform
/// feeds) or from `Graph::mapped` over an mmapped `.dsg` file
/// (graph/format.hpp). Nothing mutates it afterwards: in the LOCAL model
/// the network is fixed for the whole execution.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ds::graph {

/// Node identifier: dense index in [0, num_nodes()).
using NodeId = std::uint32_t;

/// Undirected edge as an (endpoint, endpoint) pair; a Graph stores it with
/// u < v, and its constructor takes either orientation. The layout
/// is part of the on-disk `.dsg` format (graph/format.hpp).
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 8, "Edge layout is part of the .dsg format");

/// Read-only views into a Graph's image, valid for the Graph's lifetime:
/// one node's adjacency row, and the edge list (insertion order).
using NeighborView = std::span<const NodeId>;
using EdgeView = std::span<const Edge>;

/// Undirected simple graph (no self-loops, no parallel edges). Nodes are
/// dense indices; unique LOCAL-model IDs are assigned separately (see
/// local/ids.hpp) so experiments can control ID adversaries.
class Graph {
 public:
  /// The empty graph.
  Graph() = default;

  /// A copy shares the image. A move copies too, so that a moved-from
  /// Graph still keeps alive the image its pointers view.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;

  /// Builds the image of `n` nodes and `edges` in one counting pass. Each
  /// edge is stored as u < v, in the given order, and row v lists v's
  /// neighbors in that same edge order. Throws ds::CheckError on a
  /// self-loop, an endpoint >= n, or a parallel edge (either orientation).
  explicit Graph(std::size_t n, std::vector<Edge> edges = {});

  /// Adopts a read-only CSR image: the constructor's, or an mmapped
  /// `.dsg`. `offsets` has n + 1 entries with offsets[n] == 2m, `adjacency`
  /// the 2m flattened rows, `edges` the m edges in insertion order;
  /// `keepalive` owns the backing memory (the image's arrays or the mmap
  /// region) and is held for the lifetime of the graph and of every copy.
  /// Only that sum is checked, in O(1): `check_dsg_structure`
  /// (graph/format.hpp) checks the rest of an image read from outside.
  static Graph mapped(std::shared_ptr<const void> keepalive,
                      const std::uint64_t* offsets, const NodeId* adjacency,
                      const Edge* edges, std::size_t n, std::size_t m);

  /// True if {u, v} is an edge. O(min degree).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t num_nodes() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return m_; }

  /// Neighbors of `v` in edge order.
  [[nodiscard]] NeighborView neighbors(NodeId v) const;

  [[nodiscard]] std::size_t degree(NodeId v) const;

  /// Maximum degree Δ; 0 for the empty graph.
  [[nodiscard]] std::size_t max_degree() const;

  /// Minimum degree δ; 0 for the empty graph.
  [[nodiscard]] std::size_t min_degree() const;

  /// All edges, in insertion order.
  [[nodiscard]] EdgeView edges() const { return {edges_, m_}; }

  /// The CSR offset table (n + 1 entries): row v, and with it node v's
  /// port range, is [offsets()[v], offsets()[v + 1]).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const {
    return {offsets_, n_ + 1};
  }

  /// The first node whose row lists some neighbor twice (an endpoint of a
  /// parallel edge), or num_nodes() when there is none. One O(n + m)
  /// marker pass; every row entry must be < num_nodes().
  [[nodiscard]] std::size_t first_repeated_row() const;

  /// Returns the subgraph induced by `nodes`, together with the mapping from
  /// new node ids to the original ids (`new -> old`).
  [[nodiscard]] std::pair<Graph, std::vector<NodeId>> induced_subgraph(
      const std::vector<NodeId>& nodes) const;

 private:
  /// The empty graph's offset table, so it needs no image.
  static constexpr std::uint64_t kNoOffsets[1] = {0};

  /// Owns the three arrays; null only for the empty graph.
  std::shared_ptr<const void> keepalive_;
  const std::uint64_t* offsets_ = kNoOffsets;  ///< n + 1 entries
  const NodeId* rows_ = nullptr;               ///< 2m entries
  const Edge* edges_ = nullptr;                ///< m entries
  std::size_t n_ = 0;
  std::size_t m_ = 0;
};

}  // namespace ds::graph
