#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace ds::graph::io {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << '\n';
  }
}

Graph read_edge_list(std::istream& is) {
  std::size_t n = 0;
  std::size_t m = 0;
  DS_CHECK_MSG(static_cast<bool>(is >> n >> m), "malformed edge list header");
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    DS_CHECK_MSG(static_cast<bool>(is >> u >> v), "malformed edge list line");
    edges.push_back({u, v});
  }
  return Graph(n, std::move(edges));
}

void write_bipartite(std::ostream& os, const BipartiteGraph& b) {
  os << b.num_left() << ' ' << b.num_right() << ' ' << b.num_edges() << '\n';
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    os << u << ' ' << v << '\n';
  }
}

BipartiteGraph read_bipartite(std::istream& is) {
  std::size_t nu = 0;
  std::size_t nv = 0;
  std::size_t m = 0;
  DS_CHECK_MSG(static_cast<bool>(is >> nu >> nv >> m),
               "malformed bipartite header");
  BipartiteGraph b(nu, nv);
  for (std::size_t i = 0; i < m; ++i) {
    LeftId u = 0;
    RightId v = 0;
    DS_CHECK_MSG(static_cast<bool>(is >> u >> v), "malformed bipartite line");
    b.add_edge(u, v);
  }
  return b;
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "graph G {\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << ";\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  n" << e.u << " -- n" << e.v << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const BipartiteGraph& b,
                   const std::vector<std::string>& right_colors) {
  std::ostringstream os;
  os << "graph B {\n";
  for (LeftId u = 0; u < b.num_left(); ++u) {
    os << "  u" << u << " [shape=box];\n";
  }
  for (RightId v = 0; v < b.num_right(); ++v) {
    os << "  v" << v;
    if (v < right_colors.size() && !right_colors[v].empty()) {
      os << " [style=filled, fillcolor=" << right_colors[v] << "]";
    }
    os << ";\n";
  }
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    os << "  u" << u << " -- v" << v << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace ds::graph::io
