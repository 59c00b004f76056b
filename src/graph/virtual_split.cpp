#include "graph/virtual_split.hpp"

#include "support/check.hpp"

namespace ds::graph {

NormalizedBipartite normalize_left_degrees(const BipartiteGraph& b,
                                           std::size_t delta) {
  DS_CHECK(delta >= 1);
  DS_CHECK_MSG(b.min_left_degree() >= delta,
               "normalize_left_degrees requires min left degree >= delta");
  NormalizedBipartite out;
  std::vector<Edge> virtual_edges;
  virtual_edges.reserve(b.num_edges());
  for (LeftId u = 0; u < b.num_left(); ++u) {
    const EdgeIdView edges = b.left_edges(u);
    const std::size_t d = edges.size();
    // Number of virtual copies: ⌊d/δ⌋ for d > 2δ, else 1. Each copy receives
    // either ⌊d/parts⌋ or ⌈d/parts⌉ edges, which lies in [δ, 2δ).
    const std::size_t parts = d > 2 * delta ? d / delta : 1;
    const auto first = static_cast<LeftId>(out.left_to_original.size());
    out.left_to_original.resize(first + parts, u);
    for (std::size_t i = 0; i < d; ++i) {
      const RightId v = b.endpoints(edges[i]).second;
      virtual_edges.push_back({static_cast<LeftId>(first + i % parts), v});
    }
  }
  out.graph = BipartiteGraph(out.left_to_original.size(), b.num_right(),
                             std::move(virtual_edges));
  // Postcondition from the paper: every virtual node has degree in [δ, 2δ)
  // unless the original degree was <= 2δ (then it is in [δ, 2δ]).
  for (LeftId u = 0; u < out.graph.num_left(); ++u) {
    DS_CHECK(out.graph.left_degree(u) >= delta);
    DS_CHECK(out.graph.left_degree(u) <= 2 * delta);
  }
  return out;
}

PaddedGraph pad_to_min_degree(const Graph& g, std::size_t delta) {
  DS_CHECK(delta >= 2);
  PaddedGraph out;
  out.is_virtual.assign(g.num_nodes(), false);
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t d = g.degree(v);
    if (d >= delta) continue;
    // Fresh delta-clique on the next node ids; the first (delta - d) clique
    // nodes attach to v.
    const auto clique = static_cast<NodeId>(out.is_virtual.size());
    out.is_virtual.resize(clique + delta, true);
    for (NodeId i = 0; i < delta; ++i) {
      for (NodeId j = i + 1; j < delta; ++j) {
        edges.push_back({clique + i, clique + j});
      }
    }
    for (NodeId i = 0; i < delta - d; ++i) edges.push_back({v, clique + i});
  }
  out.graph = Graph(out.is_virtual.size(), std::move(edges));
  return out;
}

}  // namespace ds::graph
