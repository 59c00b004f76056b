#include "graph/graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ds::graph {

Graph::Graph(std::size_t n, std::vector<Edge> edges) {
  struct Image {
    std::vector<std::uint64_t> offsets;
    std::vector<NodeId> rows;
    std::vector<Edge> edges;
  };
  auto image = std::make_shared<Image>();
  std::vector<std::uint64_t>& offsets = image->offsets;
  offsets.assign(n + 1, 0);
  for (Edge& e : edges) {
    DS_CHECK_MSG(e.u != e.v, "self-loops are not allowed in Graph");
    DS_CHECK(e.u < n && e.v < n);
    if (e.u > e.v) std::swap(e.u, e.v);
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Rows filled in edge order. offsets[v] serves as row v's cursor, which
  // leaves it at the row's end; one shift restores the starts.
  image->rows.resize(2 * edges.size());
  for (const Edge& e : edges) {
    image->rows[offsets[e.u]++] = e.v;
    image->rows[offsets[e.v]++] = e.u;
  }
  for (std::size_t v = n; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;

  image->edges = std::move(edges);
  const Image& im = *image;
  *this = mapped(std::move(image), im.offsets.data(), im.rows.data(),
                 im.edges.data(), n, im.edges.size());
  DS_CHECK_MSG(first_repeated_row() == n_,
               "parallel edges are not allowed in Graph");
}

Graph Graph::mapped(std::shared_ptr<const void> keepalive,
                    const std::uint64_t* offsets, const NodeId* adjacency,
                    const Edge* edges, std::size_t n, std::size_t m) {
  DS_CHECK_MSG(keepalive != nullptr,
               "mapped graph requires an owning keepalive handle");
  DS_CHECK(offsets != nullptr);
  DS_CHECK_MSG(offsets[n] == 2 * static_cast<std::uint64_t>(m),
               "mapped CSR offsets do not sum to 2m directed ports");
  Graph g;
  g.keepalive_ = std::move(keepalive);
  g.offsets_ = offsets;
  g.rows_ = adjacency;
  g.edges_ = edges;
  g.n_ = n;
  g.m_ = m;
  return g;
}

std::size_t Graph::first_repeated_row() const {
  // seen[w] == v + 1 while row v is scanned and has listed w.
  std::vector<NodeId> seen(n_, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    const auto stamp = static_cast<NodeId>(v + 1);
    for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      if (seen[rows_[i]] == stamp) return v;
      seen[rows_[i]] = stamp;
    }
  }
  return n_;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  DS_CHECK(u < num_nodes() && v < num_nodes());
  const NeighborView a = degree(u) <= degree(v) ? neighbors(u) : neighbors(v);
  const NodeId target = degree(u) <= degree(v) ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

NeighborView Graph::neighbors(NodeId v) const {
  DS_CHECK(v < n_);
  const std::uint64_t start = offsets_[v];
  return {rows_ + start, static_cast<std::size_t>(offsets_[v + 1] - start)};
}

std::size_t Graph::degree(NodeId v) const { return neighbors(v).size(); }

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) d = std::max(d, degree(v));
  return d;
}

std::size_t Graph::min_degree() const {
  const std::size_t n = num_nodes();
  if (n == 0) return 0;
  std::size_t d = degree(0);
  for (NodeId v = 1; v < n; ++v) d = std::min(d, degree(v));
  return d;
}

std::pair<Graph, std::vector<NodeId>> Graph::induced_subgraph(
    const std::vector<NodeId>& nodes) const {
  std::vector<NodeId> old_to_new(num_nodes(), static_cast<NodeId>(-1));
  std::vector<NodeId> new_to_old;
  new_to_old.reserve(nodes.size());
  for (NodeId v : nodes) {
    DS_CHECK(v < num_nodes());
    DS_CHECK_MSG(old_to_new[v] == static_cast<NodeId>(-1),
                 "duplicate node in induced_subgraph");
    old_to_new[v] = static_cast<NodeId>(new_to_old.size());
    new_to_old.push_back(v);
  }
  std::vector<Edge> sub;
  for (const Edge& e : edges()) {
    const NodeId nu = old_to_new[e.u];
    const NodeId nv = old_to_new[e.v];
    if (nu != static_cast<NodeId>(-1) && nv != static_cast<NodeId>(-1)) {
      sub.push_back({nu, nv});
    }
  }
  return {Graph(new_to_old.size(), std::move(sub)), std::move(new_to_old)};
}

}  // namespace ds::graph
