#pragma once

/// \file multigraph.hpp
/// Undirected multigraph with stable edge ids. Used by the directed degree
/// splitting substrate (Definition 2.1 of the paper): the pair-multigraph of
/// Degree-Rank Reduction II has parallel edges between constraint nodes,
/// each tagged with its "corresponding node" on the right-hand side.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ds::graph {

/// Edge identifier: dense index in [0, num_edges()).
using EdgeId = std::uint32_t;

/// One node's incident edge ids, valid for the owning graph's lifetime.
using EdgeIdView = std::span<const EdgeId>;

/// Undirected multigraph. Parallel edges are allowed; self-loops are allowed
/// and contribute 2 to the degree of their endpoint (standard convention,
/// needed so Eulerian degree arguments stay exact). Like Graph, it is one
/// immutable image: CSR offsets and one incident edge id per port.
class Multigraph {
 public:
  /// Builds the multigraph of `n` nodes and `edges` in one counting pass:
  /// edge i gets id i and keeps its orientation, and every node's incident
  /// list is in id order. u == v is a self-loop. Throws ds::CheckError on
  /// an endpoint >= n.
  explicit Multigraph(std::size_t n = 0, std::vector<Edge> edges = {});

  [[nodiscard]] std::size_t num_nodes() const { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return endpoints_.size(); }

  /// Endpoints of edge `e` (unordered; .u as given first).
  [[nodiscard]] Edge endpoints(EdgeId e) const;

  /// Ids of edges incident to `v`; a self-loop appears twice.
  [[nodiscard]] EdgeIdView incident_edges(NodeId v) const;

  /// Degree of `v` counting self-loops twice.
  [[nodiscard]] std::size_t degree(NodeId v) const;

  /// Given edge `e` incident to `v`, the endpoint other than `v`.
  /// For a self-loop, returns `v` itself.
  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const;

 private:
  std::vector<std::size_t> offsets_;  ///< n + 1 entries
  std::vector<EdgeId> incident_;      ///< 2m entries, row v per node
  std::vector<Edge> endpoints_;       ///< m entries
};

/// An orientation of a multigraph: for each edge, whether it points from
/// endpoints(e).u to endpoints(e).v (`true`) or the reverse (`false`).
struct Orientation {
  std::vector<bool> toward_v;

  /// True if edge `e` is directed out of node `x` in multigraph `g`.
  [[nodiscard]] bool directed_out_of(const Multigraph& g, EdgeId e,
                                     NodeId x) const;
};

/// Discrepancy of `orient` at node `v`: |out-degree - in-degree|.
/// Self-loops contribute one in and one out, hence 0 discrepancy.
std::size_t orientation_discrepancy(const Multigraph& g,
                                    const Orientation& orient, NodeId v);

}  // namespace ds::graph
