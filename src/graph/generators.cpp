#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <utility>

#include "graph/properties.hpp"
#include "support/check.hpp"

namespace ds::graph::gen {

namespace {

/// Canonical (min, max) form of an undirected pair for set membership.
std::pair<NodeId, NodeId> canon(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Graph gnp(std::size_t n, double p, Rng& rng) {
  DS_CHECK(p >= 0.0 && p <= 1.0);
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.next_bool(p)) edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_regular(std::size_t n, std::size_t d, Rng& rng) {
  DS_CHECK_MSG((n * d) % 2 == 0, "n*d must be even for a d-regular graph");
  DS_CHECK(d < n);
  if (d == 0) return Graph(n);
  if (d > (n - 1) / 2) {
    // Dense regime: the pairing repair thrashes when most pairs must be
    // edges. Generate the sparse (n−1−d)-regular complement and invert it.
    const Graph sparse = random_regular(n, n - 1 - d, rng);
    std::vector<bool> present(n * n, false);
    for (const Edge& e : sparse.edges()) {
      present[e.u * n + e.v] = true;
      present[e.v * n + e.u] = true;
    }
    std::vector<Edge> edges;
    for (NodeId u = 0; u + 1 < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (!present[u * n + v]) edges.push_back({u, v});
      }
    }
    return Graph(n, std::move(edges));
  }

  // Pairing model: nd stubs, random perfect matching, then repair self-loops
  // and parallel edges by random swaps.
  std::vector<NodeId> stubs;
  stubs.reserve(n * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  for (int attempt = 0; attempt < 200; ++attempt) {
    rng.shuffle(stubs);
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<Edge> pairs;
    pairs.reserve(stubs.size() / 2);
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      pairs.push_back({stubs[i], stubs[i + 1]});
    }
    // Swap repair: resolve conflicts by swapping one endpoint with a random
    // other pair; bail to a full reshuffle if we stop making progress.
    bool ok = true;
    for (std::size_t pass = 0; pass < 400 && ok; ++pass) {
      seen.clear();
      bool conflict = false;
      for (auto& pr : pairs) {
        const bool bad = pr.u == pr.v || !seen.insert(canon(pr.u, pr.v)).second;
        if (bad) {
          conflict = true;
          auto& other = pairs[rng.next_index(pairs.size())];
          std::swap(pr.v, other.v);
        }
      }
      if (!conflict) break;
      if (pass == 399) ok = false;
    }
    if (!ok) continue;
    // Final validation.
    seen.clear();
    bool simple = true;
    for (const auto& pr : pairs) {
      if (pr.u == pr.v || !seen.insert(canon(pr.u, pr.v)).second) {
        simple = false;
        break;
      }
    }
    if (!simple) continue;
    return Graph(n, std::move(pairs));
  }
  DS_CHECK_MSG(false, "random_regular: failed to build a simple graph");
  return Graph(0);  // unreachable
}

Graph cycle(std::size_t n) {
  DS_CHECK(n >= 3);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % n)});
  }
  return Graph(n, std::move(edges));
}

Graph complete(std::size_t n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph(n, std::move(edges));
}

Graph hypercube(std::size_t dim) {
  DS_CHECK(dim < 20);
  const std::size_t n = std::size_t{1} << dim;
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t b = 0; b < dim; ++b) {
      const NodeId w = static_cast<NodeId>(v ^ (std::size_t{1} << b));
      if (v < w) edges.push_back({v, w});
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_tree(std::size_t n, Rng& rng) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) {
    edges.push_back({v, static_cast<NodeId>(rng.next_index(v))});
  }
  return Graph(n, std::move(edges));
}

namespace {

/// Mutable edge-set view used by the high-girth swap repair: adjacency
/// vectors (degrees are small, linear scans beat sets) plus an edge list
/// kept in sync and a timestamped visited array for allocation-free BFS.
struct SwapGraph {
  std::vector<std::vector<NodeId>> adj;
  std::vector<Edge> edges;
  std::vector<std::uint32_t> visited_stamp;
  std::uint32_t stamp = 0;

  explicit SwapGraph(const Graph& g)
      : adj(g.num_nodes()), visited_stamp(g.num_nodes(), 0) {
    for (const Edge& e : g.edges()) {
      adj[e.u].push_back(e.v);
      adj[e.v].push_back(e.u);
      edges.push_back(e);
    }
  }

  [[nodiscard]] bool has(NodeId a, NodeId b) const {
    for (NodeId w : adj[a]) {
      if (w == b) return true;
    }
    return false;
  }

  void drop_adj(NodeId a, NodeId b) {
    auto& list = adj[a];
    for (auto& w : list) {
      if (w == b) {
        w = list.back();
        list.pop_back();
        return;
      }
    }
    DS_CHECK_MSG(false, "drop_adj: edge not present");
  }

  void replace(std::size_t idx, NodeId a, NodeId b) {
    auto [u, v] = edges[idx];
    drop_adj(u, v);
    drop_adj(v, u);
    adj[a].push_back(b);
    adj[b].push_back(a);
    edges[idx] = {a, b};
  }

  /// Is edge idx on a cycle shorter than min_girth? Truncated BFS from u
  /// avoiding the direct edge, looking for v within min_girth - 2 hops.
  [[nodiscard]] bool on_short_cycle(std::size_t idx, std::size_t min_girth) {
    const auto [u, v] = edges[idx];
    ++stamp;
    visited_stamp[u] = stamp;
    std::vector<std::pair<NodeId, std::size_t>> frontier{{u, 0}};
    while (!frontier.empty()) {
      std::vector<std::pair<NodeId, std::size_t>> next;
      for (const auto& [x, depth] : frontier) {
        if (depth + 1 > min_girth - 2) continue;
        for (NodeId y : adj[x]) {
          if (x == u && y == v) continue;  // skip the direct edge
          if (y == v) return true;  // cycle of length depth + 2 < min_girth
          if (visited_stamp[y] != stamp) {
            visited_stamp[y] = stamp;
            next.emplace_back(y, depth + 1);
          }
        }
      }
      frontier = std::move(next);
    }
    return false;
  }
};

}  // namespace

Graph high_girth_regular(std::size_t n, std::size_t d, std::size_t min_girth,
                         Rng& rng) {
  DS_CHECK(min_girth >= 3);
  DS_CHECK_MSG(min_girth <= 6, "swap repair is practical up to girth 6");
  for (int attempt = 0; attempt < 20; ++attempt) {
    SwapGraph sg(random_regular(n, d, rng));
    // Sweep the edge list repeatedly; each bad edge is swapped in place.
    // A swap can create new short cycles elsewhere, so sweeps continue
    // until one full pass finds no bad edge.
    bool stuck = false;
    for (int sweep = 0; sweep < 200 && !stuck; ++sweep) {
      bool any_bad = false;
      for (std::size_t i = 0; i < sg.edges.size() && !stuck; ++i) {
        if (!sg.on_short_cycle(i, min_girth)) continue;
        any_bad = true;
        const auto [u, v] = sg.edges[i];
        bool swapped = false;
        for (int tries = 0; tries < 400 && !swapped; ++tries) {
          const std::size_t j = rng.next_index(sg.edges.size());
          if (j == i) continue;
          const auto [x, y] = sg.edges[j];
          if (x == u || x == v || y == u || y == v) continue;
          if (sg.has(u, x) || sg.has(v, y)) continue;
          sg.replace(i, u, x);
          sg.replace(j, v, y);
          swapped = true;
        }
        stuck = !swapped;
      }
      if (!any_bad) return Graph(n, std::move(sg.edges));
    }
  }
  DS_CHECK_MSG(false, "high_girth_regular: could not reach target girth");
  return Graph(0);  // unreachable
}

BipartiteGraph random_left_regular(std::size_t nu, std::size_t nv,
                                   std::size_t delta, Rng& rng) {
  DS_CHECK_MSG(delta <= nv, "left degree cannot exceed |V|");
  BipartiteGraph b(nu, nv);
  std::vector<RightId> pool(nv);
  for (RightId v = 0; v < nv; ++v) pool[v] = v;
  for (LeftId u = 0; u < nu; ++u) {
    // Partial Fisher–Yates: the first `delta` entries become u's neighbors.
    for (std::size_t i = 0; i < delta; ++i) {
      const std::size_t j = i + rng.next_index(nv - i);
      std::swap(pool[i], pool[j]);
      b.add_edge(u, pool[i]);
    }
  }
  return b;
}

BipartiteGraph random_biregular(std::size_t nu, std::size_t nv,
                                std::size_t d_left, Rng& rng) {
  DS_CHECK(d_left <= nv);
  if (d_left > nv / 2 && nu > 0) {
    // Dense regime: the stub-pairing repair below thrashes when most pairs
    // must be edges. Generate the sparse complement biregularly and invert
    // it — the complement of a right-balanced graph is right-balanced.
    const BipartiteGraph sparse = random_biregular(nu, nv, nv - d_left, rng);
    std::vector<bool> present(nu * nv, false);
    for (EdgeId e = 0; e < sparse.num_edges(); ++e) {
      const auto [u, v] = sparse.endpoints(e);
      present[u * nv + v] = true;
    }
    BipartiteGraph b(nu, nv);
    for (LeftId u = 0; u < nu; ++u) {
      for (RightId v = 0; v < nv; ++v) {
        if (!present[u * nv + v]) b.add_edge(u, v);
      }
    }
    return b;
  }
  const std::size_t total = nu * d_left;
  // Left stubs in random order; right slots round-robin so right degrees are
  // balanced to within 1.
  std::vector<LeftId> stubs;
  stubs.reserve(total);
  for (LeftId u = 0; u < nu; ++u) {
    for (std::size_t i = 0; i < d_left; ++i) stubs.push_back(u);
  }
  for (int attempt = 0; attempt < 200; ++attempt) {
    rng.shuffle(stubs);
    std::vector<std::pair<LeftId, RightId>> pairs(total);
    for (std::size_t i = 0; i < total; ++i) {
      pairs[i] = {stubs[i], static_cast<RightId>(i % nv)};
    }
    // Swap repair for duplicate (u, v) pairs.
    bool ok = true;
    for (std::size_t pass = 0; pass < 400; ++pass) {
      std::set<std::pair<LeftId, RightId>> seen;
      bool conflict = false;
      for (auto& pr : pairs) {
        if (!seen.insert(pr).second) {
          conflict = true;
          auto& other = pairs[rng.next_index(pairs.size())];
          std::swap(pr.first, other.first);
        }
      }
      if (!conflict) break;
      if (pass == 399) ok = false;
    }
    if (!ok) continue;
    std::set<std::pair<LeftId, RightId>> seen;
    bool simple = true;
    for (const auto& pr : pairs) {
      if (!seen.insert(pr).second) {
        simple = false;
        break;
      }
    }
    if (!simple) continue;
    BipartiteGraph b(nu, nv);
    for (const auto& [u, v] : pairs) b.add_edge(u, v);
    return b;
  }
  DS_CHECK_MSG(false, "random_biregular: failed to build a simple instance");
  return BipartiteGraph(0, 0);  // unreachable
}

BipartiteGraph incidence_bipartite(const Graph& g) {
  BipartiteGraph b(g.num_nodes(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    b.add_edge(g.edges()[e].u, e);
    b.add_edge(g.edges()[e].v, e);
  }
  return b;
}

BipartiteGraph bipartite_cycle(std::size_t k) {
  DS_CHECK(k >= 2);
  BipartiteGraph b(k, k);
  for (std::uint32_t i = 0; i < k; ++i) {
    b.add_edge(i, i);
    b.add_edge(i, static_cast<RightId>((i + 1) % k));
  }
  return b;
}

Graph torus(std::size_t w, std::size_t h) {
  DS_CHECK(w >= 3 && h >= 3);
  auto id = [&](std::size_t x, std::size_t y) {
    return static_cast<NodeId>(y * w + x);
  };
  std::vector<Edge> edges;
  edges.reserve(2 * w * h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      edges.push_back({id(x, y), id((x + 1) % w, y)});
      edges.push_back({id(x, y), id(x, (y + 1) % h)});
    }
  }
  return Graph(w * h, std::move(edges));
}

Graph chung_lu_power_law(std::size_t n, double gamma, double average_degree,
                         Rng& rng) {
  DS_CHECK(gamma > 2.0);
  DS_CHECK(average_degree > 0.0);
  std::vector<double> weight(n);
  double total = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    weight[v] = std::pow(static_cast<double>(v + 1), -1.0 / (gamma - 1.0));
    total += weight[v];
  }
  // Chung-Lu: P(u,v) = w_u*w_v / sum(w) gives node v expected degree w_v,
  // so scaling the raw power-law weights to average `average_degree` hits
  // the requested mean (up to the min(1, .) capping on the heavy head).
  const double scale =
      average_degree * static_cast<double>(n) / std::max(total, 1e-12);
  for (double& wv : weight) wv *= scale;
  double weight_sum = 0.0;
  for (double wv : weight) weight_sum += wv;

  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double p =
          std::min(1.0, weight[u] * weight[v] / std::max(weight_sum, 1e-12));
      if (rng.next_bool(p)) edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

Graph barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  DS_CHECK_MSG(m >= 1 && m < n, "barabasi_albert requires 1 <= m < n");
  std::vector<Edge> edges;
  edges.reserve(m * n);
  // Flat endpoint array: every edge contributes both endpoints, so a uniform
  // draw is a degree-proportional node sample (the KaGen/BA trick).
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * m * n);
  for (NodeId u = 0; u < m + 1; ++u) {
    for (NodeId v = u + 1; v < m + 1; ++v) {
      edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<NodeId> targets;
  targets.reserve(m);
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    targets.clear();
    // Sample m distinct preferential targets; duplicates are resampled, and
    // after a generous attempt budget the remaining slots fall back to
    // uniform fresh nodes so adversarial streams cannot loop forever.
    std::size_t attempts = 0;
    const std::size_t max_attempts = 20 * m + 100;
    while (targets.size() < m) {
      NodeId t;
      if (attempts++ < max_attempts) {
        t = endpoints[rng.next_index(endpoints.size())];
      } else {
        t = static_cast<NodeId>(rng.next_index(v));
      }
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (NodeId t : targets) {
      edges.push_back({v, t});
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_geometric_2d(std::size_t n, double radius, Rng& rng) {
  DS_CHECK_MSG(radius > 0.0, "random_geometric_2d requires radius > 0");
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t v = 0; v < n; ++v) {
    x[v] = rng.next_double();
    y[v] = rng.next_double();
  }
  // Grid bucketing with cell side >= radius: all neighbors of a point lie in
  // its cell or the 8 surrounding ones.
  const std::size_t cells_per_side = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(1.0 / radius)));
  const double cell_size = 1.0 / static_cast<double>(cells_per_side);
  auto cell_of = [&](std::size_t v) {
    const auto cx = std::min(cells_per_side - 1,
                             static_cast<std::size_t>(x[v] / cell_size));
    const auto cy = std::min(cells_per_side - 1,
                             static_cast<std::size_t>(y[v] / cell_size));
    return cy * cells_per_side + cx;
  };
  std::vector<std::vector<NodeId>> buckets(cells_per_side * cells_per_side);
  for (std::size_t v = 0; v < n; ++v) {
    buckets[cell_of(v)].push_back(static_cast<NodeId>(v));
  }
  const double r2 = radius * radius;
  auto close = [&](NodeId a, NodeId b) {
    const double dx = x[a] - x[b];
    const double dy = y[a] - y[b];
    return dx * dx + dy * dy <= r2;
  };
  std::vector<Edge> edges;
  // Visit each unordered cell pair once: within-cell, plus the 4 forward
  // neighbor cells (E, SW, S, SE).
  const std::array<std::pair<int, int>, 4> forward = {
      {{1, 0}, {-1, 1}, {0, 1}, {1, 1}}};
  for (std::size_t cy = 0; cy < cells_per_side; ++cy) {
    for (std::size_t cx = 0; cx < cells_per_side; ++cx) {
      const auto& bucket = buckets[cy * cells_per_side + cx];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        for (std::size_t j = i + 1; j < bucket.size(); ++j) {
          if (close(bucket[i], bucket[j])) {
            edges.push_back({bucket[i], bucket[j]});
          }
        }
      }
      for (const auto& [dx, dy] : forward) {
        const long long nx = static_cast<long long>(cx) + dx;
        const long long ny = static_cast<long long>(cy) + dy;
        if (nx < 0 || ny < 0 ||
            nx >= static_cast<long long>(cells_per_side) ||
            ny >= static_cast<long long>(cells_per_side)) {
          continue;
        }
        const auto& other =
            buckets[static_cast<std::size_t>(ny) * cells_per_side +
                    static_cast<std::size_t>(nx)];
        for (NodeId a : bucket) {
          for (NodeId b : other) {
            if (close(a, b)) edges.push_back({a, b});
          }
        }
      }
    }
  }
  return Graph(n, std::move(edges));
}

}  // namespace ds::graph::gen
