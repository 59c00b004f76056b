#include "graph/properties.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "support/check.hpp"

namespace ds::graph {

std::vector<std::size_t> bfs_distances(const Graph& g, NodeId source,
                                       std::size_t max_depth) {
  DS_CHECK(source < g.num_nodes());
  std::vector<std::size_t> dist(g.num_nodes(), SIZE_MAX);
  std::queue<NodeId> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    if (dist[v] >= max_depth) continue;
    for (NodeId w : g.neighbors(v)) {
      if (dist[w] == SIZE_MAX) {
        dist[w] = dist[v] + 1;
        queue.push(w);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> component_labels(const Graph& g) {
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> label(g.num_nodes(), kUnvisited);
  // One BFS per component; `order` is the queue of all of them.
  std::vector<NodeId> order;
  order.reserve(g.num_nodes());
  std::uint32_t next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[s] != kUnvisited) continue;
    const std::uint32_t c = next++;
    label[s] = c;
    order.push_back(s);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      for (NodeId w : g.neighbors(order[head])) {
        if (label[w] == kUnvisited) {
          label[w] = c;
          order.push_back(w);
        }
      }
    }
  }
  return label;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto labels = component_labels(g);
  return std::all_of(labels.begin(), labels.end(),
                     [](std::uint32_t c) { return c == 0; });
}

namespace {

/// True if one 2-coloring pass (a BFS per component) colors `g` properly.
bool is_two_colorable(const Graph& g) {
  constexpr std::uint8_t kUncolored = 2;
  std::vector<std::uint8_t> side(g.num_nodes(), kUncolored);
  std::vector<NodeId> order;
  order.reserve(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (side[s] != kUncolored) continue;
    side[s] = 0;
    order.push_back(s);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const NodeId v = order[head];
      for (NodeId w : g.neighbors(v)) {
        if (side[w] == kUncolored) {
          side[w] = side[v] ^ 1;
          order.push_back(w);
        } else if (side[w] == side[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

std::size_t girth(const Graph& g) {
  // A BFS from each root s; a non-tree edge (v, w) closes a closed walk of
  // length dist[v] + dist[w] + 1 that contains a cycle, and the root on a
  // shortest cycle finds exactly its length, so the minimum over all roots
  // is the girth. A node popped at depth d only finds walks of length
  // >= 2d + 1 (its edges back to depth d - 1 were seen from there), so a
  // root's BFS stops there once that cannot beat `best`; and no cycle is
  // shorter than 3, or 4 in a bipartite graph, so the scan stops at that
  // floor.
  constexpr NodeId kNone = static_cast<NodeId>(-1);
  const std::size_t floor = is_two_colorable(g) ? 4 : 3;
  std::vector<std::size_t> dist(g.num_nodes(), SIZE_MAX);
  std::vector<NodeId> parent(g.num_nodes(), kNone);
  std::vector<NodeId> order;  // the BFS queue; reset only what it visited
  order.reserve(g.num_nodes());
  std::size_t best = SIZE_MAX;
  for (NodeId s = 0; s < g.num_nodes() && best > floor; ++s) {
    dist[s] = 0;
    parent[s] = kNone;
    order.push_back(s);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      if (2 * dist[v] + 1 >= best) break;
      for (NodeId w : g.neighbors(v)) {
        if (dist[w] == SIZE_MAX) {
          dist[w] = dist[v] + 1;
          parent[w] = v;
          order.push_back(w);
        } else if (w != parent[v]) {
          best = std::min(best, dist[v] + dist[w] + 1);
        }
      }
    }
    for (const NodeId v : order) dist[v] = SIZE_MAX;
    order.clear();
  }
  return best;
}

Graph power(const Graph& g, std::size_t k) {
  DS_CHECK(k >= 1);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : ball(g, v, k)) {
      if (w > v) edges.push_back({v, w});
    }
  }
  return Graph(g.num_nodes(), std::move(edges));
}

std::vector<NodeId> ball(const Graph& g, NodeId v, std::size_t k) {
  const auto dist = bfs_distances(g, v, k);
  std::vector<NodeId> out;
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (w != v && dist[w] <= k) out.push_back(w);
  }
  return out;
}

}  // namespace ds::graph
