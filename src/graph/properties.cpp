#include "graph/properties.hpp"

#include <algorithm>
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
  std::uint32_t next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[s] != kUnvisited) continue;
    const std::uint32_t c = next++;
    std::queue<NodeId> queue;
    label[s] = c;
    queue.push(s);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop();
      for (NodeId w : g.neighbors(v)) {
        if (label[w] == kUnvisited) {
          label[w] = c;
          queue.push(w);
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

/// BFS from `s` that returns the length of the shortest cycle through the
/// BFS tree rooted at s (standard girth scan) and records one such cycle.
std::size_t shortest_cycle_through(const Graph& g, NodeId s,
                                   std::vector<NodeId>* cycle_out) {
  constexpr NodeId kNone = static_cast<NodeId>(-1);
  std::vector<std::size_t> dist(g.num_nodes(), SIZE_MAX);
  std::vector<NodeId> parent(g.num_nodes(), kNone);
  std::queue<NodeId> queue;
  dist[s] = 0;
  queue.push(s);
  std::size_t best = SIZE_MAX;
  NodeId best_u = kNone;
  NodeId best_w = kNone;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    for (NodeId w : g.neighbors(v)) {
      if (dist[w] == SIZE_MAX) {
        dist[w] = dist[v] + 1;
        parent[w] = v;
        queue.push(w);
      } else if (w != parent[v]) {
        // Non-tree edge: closes a (not necessarily simple through s) cycle of
        // length dist[v] + dist[w] + 1. The minimum over all BFS roots is the
        // girth.
        const std::size_t len = dist[v] + dist[w] + 1;
        if (len < best) {
          best = len;
          best_u = v;
          best_w = w;
        }
      }
    }
  }
  if (best != SIZE_MAX && cycle_out != nullptr) {
    // Walk both endpoints up to the root; the concatenated tree paths plus
    // the non-tree edge contain a cycle of length <= best.
    std::vector<NodeId> pu;
    std::vector<NodeId> pw;
    for (NodeId x = best_u; x != kNone; x = parent[x]) pu.push_back(x);
    for (NodeId x = best_w; x != kNone; x = parent[x]) pw.push_back(x);
    // Trim the shared suffix (common ancestors).
    while (pu.size() >= 2 && pw.size() >= 2 &&
           pu[pu.size() - 1] == pw[pw.size() - 1] &&
           pu[pu.size() - 2] == pw[pw.size() - 2]) {
      pu.pop_back();
      pw.pop_back();
    }
    cycle_out->clear();
    cycle_out->insert(cycle_out->end(), pu.begin(), pu.end());
    for (auto it = pw.rbegin(); it != pw.rend(); ++it) {
      if (*it != pu.back() && *it != pu.front()) cycle_out->push_back(*it);
    }
  }
  return best;
}

}  // namespace

std::vector<NodeId> shortest_cycle(const Graph& g) {
  std::size_t best = SIZE_MAX;
  std::vector<NodeId> best_cycle;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    std::vector<NodeId> cycle;
    const std::size_t len = shortest_cycle_through(g, s, &cycle);
    if (len < best) {
      best = len;
      best_cycle = std::move(cycle);
    }
  }
  return best_cycle;
}

std::size_t girth(const Graph& g) {
  std::size_t best = SIZE_MAX;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    best = std::min(best, shortest_cycle_through(g, s, nullptr));
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
