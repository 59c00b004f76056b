#include "graph/bipartite.hpp"

#include <algorithm>

#include "graph/properties.hpp"
#include "support/check.hpp"

namespace ds::graph {

namespace {

/// The unified image of {left, right} edges: right node v becomes vertex
/// nu + v.
Graph unify(std::size_t nu, std::size_t nv, std::vector<Edge> edges) {
  DS_CHECK_MSG(nu + nv <= NodeId(-1),
               "BipartiteGraph: nu + nv must stay below 2^32");
  for (Edge& e : edges) {
    DS_CHECK(e.u < nu && e.v < nv);
    e.v += static_cast<NodeId>(nu);
  }
  return Graph(nu + nv, std::move(edges));
}

}  // namespace

BipartiteGraph::BipartiteGraph(std::size_t nu, std::size_t nv,
                               std::vector<Edge> edges)
    : BipartiteGraph(unify(nu, nv, std::move(edges)), nu) {}

BipartiteGraph::BipartiteGraph(Graph unified, std::size_t nu)
    : unified_(std::move(unified)), nu_(nu) {
  const std::span<const std::uint64_t> offsets = unified_.offsets();
  const EdgeView edges = unified_.edges();
  DS_CHECK(edges.size() <= EdgeId(-1));
  // Rows list their edges in id order (graph.hpp): one cursor per row
  // meets each endpoint of edge e at the next slot of its row.
  std::vector<std::uint64_t> next(offsets.begin(), offsets.end() - 1);
  auto ports = std::make_shared_for_overwrite<EdgeId[]>(offsets.back());
  for (EdgeId e = 0; e < edges.size(); ++e) {
    ports[next[edges[e].u]++] = e;
    ports[next[edges[e].v]++] = e;
  }
  port_edges_ = std::move(ports);
}

std::pair<LeftId, RightId> BipartiteGraph::endpoints(EdgeId e) const {
  DS_CHECK(e < num_edges());
  const Edge& x = unified_.edges()[e];
  return {x.u, static_cast<RightId>(x.v - nu_)};
}

EdgeIdView BipartiteGraph::row_edges(NodeId x) const {
  const std::span<const std::uint64_t> offsets = unified_.offsets();
  return {port_edges_.get() + offsets[x],
          static_cast<std::size_t>(offsets[x + 1] - offsets[x])};
}

EdgeIdView BipartiteGraph::left_edges(LeftId u) const {
  DS_CHECK(u < num_left());
  return row_edges(unified_left(u));
}

EdgeIdView BipartiteGraph::right_edges(RightId v) const {
  DS_CHECK(v < num_right());
  return row_edges(unified_right(v));
}

std::vector<RightId> BipartiteGraph::left_neighbors(LeftId u) const {
  DS_CHECK(u < num_left());
  std::vector<RightId> out;
  out.reserve(left_degree(u));
  for (NodeId w : unified_.neighbors(u)) {
    out.push_back(static_cast<RightId>(w - nu_));
  }
  return out;
}

NeighborView BipartiteGraph::right_neighbors(RightId v) const {
  DS_CHECK(v < num_right());
  return unified_.neighbors(unified_right(v));
}

std::size_t BipartiteGraph::min_left_degree() const {
  if (num_left() == 0) return 0;
  std::size_t d = left_degree(0);
  for (LeftId u = 1; u < num_left(); ++u) d = std::min(d, left_degree(u));
  return d;
}

std::size_t BipartiteGraph::max_left_degree() const {
  std::size_t d = 0;
  for (LeftId u = 0; u < num_left(); ++u) d = std::max(d, left_degree(u));
  return d;
}

std::size_t BipartiteGraph::rank() const {
  std::size_t d = 0;
  for (RightId v = 0; v < num_right(); ++v) d = std::max(d, right_degree(v));
  return d;
}

std::size_t BipartiteGraph::min_right_degree() const {
  if (num_right() == 0) return 0;
  std::size_t d = right_degree(0);
  for (RightId v = 1; v < num_right(); ++v) d = std::min(d, right_degree(v));
  return d;
}

bool BipartiteGraph::has_edge(LeftId u, RightId v) const {
  DS_CHECK(u < num_left() && v < num_right());
  return unified_.has_edge(unified_left(u), unified_right(v));
}

std::pair<BipartiteGraph, std::vector<EdgeId>> BipartiteGraph::filter_edges(
    const std::vector<bool>& keep) const {
  DS_CHECK(keep.size() == num_edges());
  const auto kept = static_cast<std::size_t>(std::ranges::count(keep, true));
  std::vector<Edge> edges;
  std::vector<EdgeId> new_to_old;
  edges.reserve(kept);
  new_to_old.reserve(kept);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (keep[e]) {
      edges.push_back(unified_.edges()[e]);
      new_to_old.push_back(e);
    }
  }
  return {BipartiteGraph(Graph(num_nodes(), std::move(edges)), nu_),
          std::move(new_to_old)};
}

std::vector<BipartiteComponent> connected_components(const BipartiteGraph& b,
                                                     bool keep_isolated) {
  const Graph& g = b.unified();
  const std::size_t n = g.num_nodes();
  const std::size_t nu = b.num_left();
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  // Components in order of their first unified vertex, without isolated
  // vertices unless kept. Each side of a component lists its members in
  // parent order; local[x] is vertex x's index on its side.
  const std::vector<std::uint32_t> label = component_labels(g);
  std::vector<std::uint32_t> comp_of_label(n, kNone);
  const auto comp = [&](NodeId x) { return comp_of_label[label[x]]; };
  struct Sizes {
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::size_t edges = 0;
  };
  std::vector<Sizes> sizes;
  std::vector<std::uint32_t> local(n);
  for (NodeId x = 0; x < n; ++x) {
    if (g.degree(x) == 0 && !keep_isolated) continue;
    if (comp(x) == kNone) {
      comp_of_label[label[x]] = static_cast<std::uint32_t>(sizes.size());
      sizes.emplace_back();
    }
    Sizes& s = sizes[comp(x)];
    if (x < nu) {
      local[x] = s.left++;
      s.edges += g.degree(x);
    } else {
      local[x] = s.right++;
    }
  }
  std::vector<BipartiteComponent> components(sizes.size());
  std::vector<std::vector<Edge>> edges(sizes.size());
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    components[c].left_to_parent.resize(sizes[c].left);
    components[c].right_to_parent.resize(sizes[c].right);
    edges[c].reserve(sizes[c].edges);
  }
  for (NodeId x = 0; x < n; ++x) {
    if (comp(x) == kNone) continue;
    BipartiteComponent& c = components[comp(x)];
    if (x < nu) {
      c.left_to_parent[local[x]] = x;
    } else {
      c.right_to_parent[local[x]] = static_cast<RightId>(x - nu);
    }
  }
  // Component edges keep their parent order.
  for (const Edge& e : g.edges()) {
    edges[comp(e.u)].push_back({local[e.u], local[e.v]});
  }
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    components[c].graph =
        BipartiteGraph(sizes[c].left, sizes[c].right, std::move(edges[c]));
  }
  return components;
}

}  // namespace ds::graph
