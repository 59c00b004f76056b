#include "graph/bipartite.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"

namespace ds::graph {

BipartiteGraph::BipartiteGraph(std::size_t nu, std::size_t nv)
    : left_edges_(nu), right_edges_(nv) {}

LeftId BipartiteGraph::add_left_node() {
  left_edges_.emplace_back();
  return static_cast<LeftId>(left_edges_.size() - 1);
}

RightId BipartiteGraph::add_right_node() {
  right_edges_.emplace_back();
  return static_cast<RightId>(right_edges_.size() - 1);
}

EdgeId BipartiteGraph::add_edge(LeftId u, RightId v) {
  DS_CHECK(u < left_edges_.size() && v < right_edges_.size());
  DS_CHECK_MSG(!has_edge(u, v), "parallel edges not allowed in BipartiteGraph");
  const EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.emplace_back(u, v);
  left_edges_[u].push_back(e);
  right_edges_[v].push_back(e);
  return e;
}

std::pair<LeftId, RightId> BipartiteGraph::endpoints(EdgeId e) const {
  DS_CHECK(e < edges_.size());
  return edges_[e];
}

const std::vector<EdgeId>& BipartiteGraph::left_edges(LeftId u) const {
  DS_CHECK(u < left_edges_.size());
  return left_edges_[u];
}

const std::vector<EdgeId>& BipartiteGraph::right_edges(RightId v) const {
  DS_CHECK(v < right_edges_.size());
  return right_edges_[v];
}

std::vector<RightId> BipartiteGraph::left_neighbors(LeftId u) const {
  std::vector<RightId> out;
  out.reserve(left_edges(u).size());
  for (EdgeId e : left_edges(u)) out.push_back(edges_[e].second);
  return out;
}

std::vector<LeftId> BipartiteGraph::right_neighbors(RightId v) const {
  std::vector<LeftId> out;
  out.reserve(right_edges(v).size());
  for (EdgeId e : right_edges(v)) out.push_back(edges_[e].first);
  return out;
}

std::size_t BipartiteGraph::left_degree(LeftId u) const {
  return left_edges(u).size();
}

std::size_t BipartiteGraph::right_degree(RightId v) const {
  return right_edges(v).size();
}

std::size_t BipartiteGraph::min_left_degree() const {
  if (left_edges_.empty()) return 0;
  std::size_t d = left_edges_.front().size();
  for (const auto& a : left_edges_) d = std::min(d, a.size());
  return d;
}

std::size_t BipartiteGraph::max_left_degree() const {
  std::size_t d = 0;
  for (const auto& a : left_edges_) d = std::max(d, a.size());
  return d;
}

std::size_t BipartiteGraph::rank() const {
  std::size_t d = 0;
  for (const auto& a : right_edges_) d = std::max(d, a.size());
  return d;
}

std::size_t BipartiteGraph::min_right_degree() const {
  if (right_edges_.empty()) return 0;
  std::size_t d = right_edges_.front().size();
  for (const auto& a : right_edges_) d = std::min(d, a.size());
  return d;
}

bool BipartiteGraph::has_edge(LeftId u, RightId v) const {
  DS_CHECK(u < left_edges_.size() && v < right_edges_.size());
  if (left_edges_[u].size() <= right_edges_[v].size()) {
    for (EdgeId e : left_edges_[u]) {
      if (edges_[e].second == v) return true;
    }
  } else {
    for (EdgeId e : right_edges_[v]) {
      if (edges_[e].first == u) return true;
    }
  }
  return false;
}

std::pair<BipartiteGraph, std::vector<EdgeId>> BipartiteGraph::filter_edges(
    const std::vector<bool>& keep) const {
  DS_CHECK(keep.size() == edges_.size());
  BipartiteGraph out(num_left(), num_right());
  std::vector<EdgeId> new_to_old;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (keep[e]) {
      out.add_edge(edges_[e].first, edges_[e].second);
      new_to_old.push_back(e);
    }
  }
  return {std::move(out), std::move(new_to_old)};
}

Graph BipartiteGraph::unified() const {
  std::vector<Edge> edges;
  for (const auto& [u, v] : edges_) {
    edges.push_back({unified_left(u), unified_right(v)});
  }
  return Graph(num_nodes(), std::move(edges));
}

std::vector<BipartiteComponent> connected_components(const BipartiteGraph& b,
                                                     bool keep_isolated) {
  const std::size_t nu = b.num_left();
  const std::size_t nv = b.num_right();
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> comp_left(nu, kUnvisited);
  std::vector<std::uint32_t> comp_right(nv, kUnvisited);
  std::uint32_t num_components = 0;

  // BFS over the unified node set; (side, index) pairs on the queue.
  struct Item {
    bool is_left;
    std::uint32_t idx;
  };
  for (std::uint32_t start = 0; start < nu + nv; ++start) {
    const bool start_left = start < nu;
    const std::uint32_t start_idx = start_left ? start : start - nu;
    auto& comp_of_start = start_left ? comp_left[start_idx]
                                     : comp_right[start_idx];
    if (comp_of_start != kUnvisited) continue;
    const bool isolated = start_left ? b.left_degree(start_idx) == 0
                                     : b.right_degree(start_idx) == 0;
    if (isolated && !keep_isolated) continue;
    const std::uint32_t c = num_components++;
    comp_of_start = c;
    std::queue<Item> queue;
    queue.push({start_left, start_idx});
    while (!queue.empty()) {
      const Item item = queue.front();
      queue.pop();
      if (item.is_left) {
        for (EdgeId e : b.left_edges(item.idx)) {
          const RightId w = b.endpoints(e).second;
          if (comp_right[w] == kUnvisited) {
            comp_right[w] = c;
            queue.push({false, w});
          }
        }
      } else {
        for (EdgeId e : b.right_edges(item.idx)) {
          const LeftId w = b.endpoints(e).first;
          if (comp_left[w] == kUnvisited) {
            comp_left[w] = c;
            queue.push({true, w});
          }
        }
      }
    }
  }

  std::vector<BipartiteComponent> components(num_components);
  std::vector<std::vector<LeftId>> left_members(num_components);
  std::vector<std::vector<RightId>> right_members(num_components);
  // local index of each parent node inside its component
  std::vector<std::uint32_t> local_left(nu, kUnvisited);
  std::vector<std::uint32_t> local_right(nv, kUnvisited);
  for (LeftId u = 0; u < nu; ++u) {
    if (comp_left[u] != kUnvisited) {
      local_left[u] = static_cast<std::uint32_t>(
          left_members[comp_left[u]].size());
      left_members[comp_left[u]].push_back(u);
    }
  }
  for (RightId v = 0; v < nv; ++v) {
    if (comp_right[v] != kUnvisited) {
      local_right[v] = static_cast<std::uint32_t>(
          right_members[comp_right[v]].size());
      right_members[comp_right[v]].push_back(v);
    }
  }
  for (std::uint32_t c = 0; c < num_components; ++c) {
    components[c].graph =
        BipartiteGraph(left_members[c].size(), right_members[c].size());
    components[c].left_to_parent = left_members[c];
    components[c].right_to_parent = right_members[c];
  }
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    const std::uint32_t c = comp_left[u];
    DS_CHECK(c == comp_right[v]);
    components[c].graph.add_edge(local_left[u], local_right[v]);
  }
  return components;
}

}  // namespace ds::graph
