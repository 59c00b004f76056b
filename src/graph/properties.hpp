#pragma once

/// \file properties.hpp
/// Structural graph queries used by the algorithms and the verifiers:
/// BFS distances, connected components, girth, and graph powers (B², B⁴).

#include <vector>

#include "graph/graph.hpp"

namespace ds::graph {

/// BFS distances from `source`; unreachable nodes get SIZE_MAX.
std::vector<std::size_t> bfs_distances(const Graph& g, NodeId source,
                                       std::size_t max_depth = SIZE_MAX);

/// Component label per node: dense in [0, #components), in node order.
std::vector<std::uint32_t> component_labels(const Graph& g);

/// True if the graph is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// Girth: length of a shortest cycle, or SIZE_MAX for forests. Exact;
/// O(n·m) in the worst case, but each root's BFS stops at the depth where
/// it cannot beat the best cycle so far, and the scan stops once that is 3
/// (4 in a bipartite graph).
std::size_t girth(const Graph& g);

/// The k-th power of `g`: same nodes, an edge between any two distinct nodes
/// at distance <= k in `g`. Used to color B² and B⁴ for the SLOCAL-to-LOCAL
/// compilation steps (Lemma 2.1, Theorem 5.2).
Graph power(const Graph& g, std::size_t k);

/// Nodes at distance exactly <= k from `v`, excluding `v` itself.
std::vector<NodeId> ball(const Graph& g, NodeId v, std::size_t k);

}  // namespace ds::graph
