#include "edgecolor/edge_coloring.hpp"

#include <algorithm>
#include <cmath>

#include "graph/multigraph.hpp"
#include "orient/euler.hpp"
#include "support/check.hpp"

namespace ds::edgecolor {

namespace {

/// Per-node red/blue counts under a split, one pass over the edges.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> color_counts(
    const graph::Graph& g, const EdgeSplit& is_red) {
  std::vector<std::size_t> red(g.num_nodes(), 0);
  std::vector<std::size_t> blue(g.num_nodes(), 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edges()[e];
    auto& bucket = is_red[e] ? red : blue;
    ++bucket[ed.u];
    ++bucket[ed.v];
  }
  return {std::move(red), std::move(blue)};
}

}  // namespace

bool is_edge_split(const graph::Graph& g, const EdgeSplit& is_red, double eps,
                   std::size_t degree_threshold) {
  DS_CHECK(is_red.size() == g.num_edges());
  const auto [red, blue] = color_counts(g, is_red);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t d = g.degree(v);
    if (d < degree_threshold) continue;
    const auto cap = static_cast<std::size_t>(
        std::ceil((0.5 + eps) * static_cast<double>(d)));
    if (red[v] > cap || blue[v] > cap) return false;
  }
  return true;
}

EdgeSplit edge_split(const graph::Graph& g, double charged_eps,
                     local::CostMeter* meter) {
  DS_CHECK(charged_eps > 0.0);
  // The [GS17] construction: partition the edges into Euler trails and color
  // them *alternately along each trail*. Every internal visit of a trail at
  // a node pairs one red with one blue edge, so only trail endpoints can
  // create imbalance:
  //   * a trail ends at v only once v's edges are exhausted, so each node
  //     absorbs at most one uncontrolled end contribution of +-1;
  //   * start contributions (+-1 open, +-2 odd closed circuit, 0 even) have
  //     a free color choice, picked greedily against the running balance.
  // Net per-node discrepancy is at most 3 = (one uncontrolled end) + (the
  // greedy envelope of the controlled starts).
  const graph::Multigraph m(g.num_nodes(),
                            {g.edges().begin(), g.edges().end()});
  EdgeSplit is_red = orient::alternating_bicoloring(m);
  if (meter != nullptr) {
    meter->charge("degree-split", local::degree_splitting_cost_det(
                                      std::min(1.0, charged_eps),
                                      g.num_nodes()));
  }
  return is_red;
}

bool is_proper_edge_coloring(const graph::Graph& g,
                             const std::vector<std::uint32_t>& colors) {
  DS_CHECK(colors.size() == g.num_edges());
  // Two edges conflict iff they share an endpoint: check per node.
  std::vector<std::vector<std::uint32_t>> seen(g.num_nodes());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edges()[e];
    for (graph::NodeId v : {ed.u, ed.v}) {
      auto& used = seen[v];
      if (std::find(used.begin(), used.end(), colors[e]) != used.end()) {
        return false;
      }
      used.push_back(colors[e]);
    }
  }
  return true;
}

EdgeColoringResult edge_coloring_via_splitting(const graph::Graph& g,
                                               std::size_t target_degree,
                                               local::CostMeter* meter) {
  DS_CHECK(target_degree >= 1);
  EdgeColoringResult result;
  result.colors.assign(g.num_edges(), 0);

  // Edge classes as lists of edge ids; split any class whose max per-node
  // degree exceeds the target. All same-level splits run in parallel in
  // LOCAL; merge their charged costs as a max per level.
  std::vector<std::vector<std::size_t>> classes(1);
  classes[0].resize(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) classes[0][e] = e;

  auto class_degree = [&](const std::vector<std::size_t>& edges) {
    std::vector<std::size_t> deg(g.num_nodes(), 0);
    std::size_t worst = 0;
    for (std::size_t e : edges) {
      worst = std::max(worst, ++deg[g.edges()[e].u]);
      worst = std::max(worst, ++deg[g.edges()[e].v]);
    }
    return worst;
  };

  for (std::size_t level = 0; level < 40; ++level) {
    bool any_split = false;
    std::vector<std::vector<std::size_t>> next;
    local::CostMeter level_meter;
    for (auto& cls : classes) {
      if (class_degree(cls) <= target_degree) {
        next.push_back(std::move(cls));
        continue;
      }
      any_split = true;
      // Build the class subgraph as a multigraph and split its edges with
      // the alternating Euler-trail bicoloring (discrepancy <= 3).
      std::vector<graph::Edge> class_edges;
      class_edges.reserve(cls.size());
      for (std::size_t e : cls) class_edges.push_back(g.edges()[e]);
      const graph::Multigraph m(g.num_nodes(), std::move(class_edges));
      const std::vector<bool> class_red = orient::alternating_bicoloring(m);
      local::CostMeter one;
      one.charge("degree-split",
                 local::degree_splitting_cost_det(0.5, g.num_nodes()));
      level_meter.merge_parallel_max(one);
      std::vector<std::size_t> red;
      std::vector<std::size_t> blue;
      for (std::size_t i = 0; i < cls.size(); ++i) {
        (class_red[i] ? red : blue).push_back(cls[i]);
      }
      if (!red.empty()) next.push_back(std::move(red));
      if (!blue.empty()) next.push_back(std::move(blue));
    }
    classes = std::move(next);
    if (meter != nullptr) meter->merge_sequential(level_meter);
    if (!any_split) break;
    ++result.levels;
  }

  // Greedy (2d−1)-edge-coloring per class, disjoint palettes. Greedy over
  // the class's line graph: each edge takes the smallest color unused at
  // either endpoint; a class of max degree d needs at most 2d−1 colors.
  std::uint32_t palette_base = 0;
  for (const auto& cls : classes) {
    const std::size_t d = class_degree(cls);
    result.max_class_degree = std::max(result.max_class_degree, d);
    const std::uint32_t palette =
        d == 0 ? 1 : static_cast<std::uint32_t>(2 * d - 1);
    std::vector<std::vector<std::uint32_t>> used(g.num_nodes());
    std::uint32_t used_in_class = 0;
    for (std::size_t e : cls) {
      const graph::Edge& ed = g.edges()[e];
      std::uint32_t pick = palette;
      for (std::uint32_t c = 0; c < palette; ++c) {
        const bool conflict =
            std::find(used[ed.u].begin(), used[ed.u].end(), c) !=
                used[ed.u].end() ||
            std::find(used[ed.v].begin(), used[ed.v].end(), c) !=
                used[ed.v].end();
        if (!conflict) {
          pick = c;
          break;
        }
      }
      DS_CHECK_MSG(pick < palette, "greedy exceeded 2d-1 colors (bug)");
      used[ed.u].push_back(pick);
      used[ed.v].push_back(pick);
      used_in_class = std::max(used_in_class, pick + 1);
      result.colors[e] = palette_base + pick;
    }
    palette_base += used_in_class;
  }
  result.num_classes = classes.size();
  result.num_colors = palette_base;
  DS_CHECK_MSG(is_proper_edge_coloring(g, result.colors),
               "edge coloring via splitting is not proper");
  return result;
}

}  // namespace ds::edgecolor
