#include "reductions/graph_to_bipartite.hpp"

#include "support/check.hpp"

namespace ds::reductions {

graph::BipartiteGraph graph_to_bipartite(const graph::Graph& g) {
  std::vector<graph::Edge> edges;
  edges.reserve(2 * g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    // v_L sees u_R and u_L sees v_R.
    edges.push_back({e.v, e.u});
    edges.push_back({e.u, e.v});
  }
  return graph::BipartiteGraph(g.num_nodes(), g.num_nodes(), std::move(edges));
}

bool is_graph_weak_splitting(const graph::Graph& g,
                             const splitting::Coloring& colors,
                             std::size_t min_degree) {
  DS_CHECK(colors.size() == g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) < min_degree) continue;
    bool red = false;
    bool blue = false;
    for (graph::NodeId w : g.neighbors(v)) {
      red = red || (colors[w] == splitting::Color::kRed);
      blue = blue || (colors[w] == splitting::Color::kBlue);
    }
    if (!(red && blue)) return false;
  }
  return true;
}

}  // namespace ds::reductions
