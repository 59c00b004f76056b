#include "multicolor/reductions.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "multicolor/random_algorithms.hpp"
#include "support/check.hpp"

namespace ds::multicolor {

splitting::Coloring weak_splitting_via_multicolor(
    const graph::BipartiteGraph& b, Rng& rng, local::CostMeter* meter,
    WeakViaMulticolorInfo* info) {
  const std::size_t n = std::max<std::size_t>(4, b.num_nodes());
  const auto params = weak_multicolor_params(n);
  DS_CHECK_MSG(b.min_left_degree() >= params.degree_threshold,
               "Theorem 3.2 reduction requires deg(u) >= (2 log n + 1) ln n");
  WeakViaMulticolorInfo local_info;
  local_info.multicolor_palette = params.num_colors;

  // Black box: weak multicolor splitting with C' = ⌈2 log n⌉ colors. With
  // this palette, "sees >= 2 log n colors" means "sees every color".
  const ColorAssignment multicolors =
      derand_weak_multicolor(b, params.num_colors, rng, meter);
  DS_CHECK_MSG(
      is_weak_multicolor_splitting(b, multicolors, params.num_colors,
                                   params.required_colors,
                                   params.degree_threshold),
      "multicolor black box failed on a valid Theorem 3.2 instance");

  // S(u): the first required_colors neighbors with pairwise distinct colors.
  // Keep only those edges; left degrees in B′ are exactly required_colors.
  std::vector<bool> keep(b.num_edges(), false);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    std::set<std::uint32_t> used;
    for (graph::EdgeId e : b.left_edges(u)) {
      const std::uint32_t c = multicolors[b.endpoints(e).second];
      if (used.size() >= params.required_colors) break;
      if (used.insert(c).second) keep[e] = true;
    }
    DS_CHECK_MSG(used.size() >= params.required_colors,
                 "could not collect 2 log n distinctly colored neighbors");
  }
  const graph::BipartiteGraph pruned = b.filter_edges(keep).first;
  local_info.pruned_degree = pruned.max_left_degree();

  // The multicolor assignment is a proper coloring of B′² restricted to V:
  // two right nodes sharing a left node in B′ lie in the same S(u) and thus
  // have different colors. Validate the claim.
  for (graph::LeftId u = 0; u < pruned.num_left(); ++u) {
    std::set<std::uint32_t> seen;
    for (graph::EdgeId e : pruned.left_edges(u)) {
      DS_CHECK_MSG(seen.insert(multicolors[pruned.endpoints(e).second]).second,
                   "S(u) is not rainbow — B′² coloring claim violated");
    }
  }

  // Schedule the SLOCAL(2) weak splitting derandomization by multicolor
  // class ([GHK17a, Prop 3.2]): O(C) LOCAL rounds.
  std::vector<std::uint32_t> order(pruned.num_right());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return multicolors[x] < multicolors[y];
                   });
  if (meter != nullptr) {
    meter->charge("slocal-compile", 2.0 * params.num_colors);
  }
  const derand::Problem problem = derand::weak_splitting_problem(pruned);
  const derand::Result result = derand::derandomize(problem, order);
  local_info.weak_potential = result.initial_potential;

  splitting::Coloring colors(pruned.num_right());
  for (graph::RightId v = 0; v < pruned.num_right(); ++v) {
    colors[v] = result.assignment[v] == 0 ? splitting::Color::kRed
                                          : splitting::Color::kBlue;
  }
  // A weak splitting of B′ is a weak splitting of B (adding edges only
  // helps).
  DS_CHECK_MSG(splitting::is_weak_splitting(b, colors),
               "Theorem 3.2 reduction output failed verification");
  if (info != nullptr) *info = local_info;
  return colors;
}

IteratedCLResult iterated_cl_multicolor(const graph::BipartiteGraph& b,
                                        std::uint32_t C, double lambda,
                                        double alpha, Rng& rng,
                                        local::CostMeter* meter) {
  DS_CHECK(C >= 2);
  DS_CHECK(lambda > 0.0 && lambda < 1.0);
  const std::size_t n = std::max<std::size_t>(4, b.num_nodes());
  const double log_n = std::log2(static_cast<double>(n));
  const double ln_n = std::log(static_cast<double>(n));
  IteratedCLResult result;
  result.target_load_frac = 1.0 / (2.0 * log_n);
  // Virtual color-class nodes below this degree are left unconstrained; the
  // paper's αλ·ln n threshold.
  const std::size_t min_virtual_degree = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(alpha * lambda * ln_n)));

  // Iteration count ⌈log_{1/λ}(2 log n)⌉ (one shot if λ already small).
  if (lambda <= result.target_load_frac) {
    result.iterations = 1;
  } else {
    result.iterations = static_cast<std::size_t>(std::ceil(
        std::log(2.0 * log_n) / std::log(1.0 / lambda)));
  }

  // Combined color per right node across iterations; compacted at the end.
  std::vector<std::uint64_t> combined(b.num_right(), 0);
  for (std::size_t iter = 0; iter < result.iterations; ++iter) {
    // Virtual instance H_i: one left node per (u, current color class x)
    // with enough neighbors of class x.
    graph::LeftId nh = 0;
    std::vector<graph::Edge> virtual_edges;
    for (graph::LeftId u = 0; u < b.num_left(); ++u) {
      std::map<std::uint64_t, std::vector<graph::RightId>> classes;
      for (graph::EdgeId e : b.left_edges(u)) {
        const graph::RightId v = b.endpoints(e).second;
        classes[combined[v]].push_back(v);
      }
      for (const auto& [x, members] : classes) {
        if (members.size() < min_virtual_degree) continue;
        for (graph::RightId v : members) virtual_edges.push_back({nh, v});
        ++nh;
      }
    }
    const graph::BipartiteGraph h(nh, b.num_right(), std::move(virtual_edges));
    // Black box: (C, λ)-multicolor splitting on H_i.
    const ColorAssignment found =
        derand_cl_multicolor(h, C, lambda, rng, meter);
    const std::uint32_t palette = cl_palette(C, lambda);
    DS_CHECK_MSG(
        is_multicolor_splitting(h, found, palette, lambda),
        "(C,λ) black box failed on an iteration instance of Theorem 3.3");
    for (graph::RightId v = 0; v < b.num_right(); ++v) {
      combined[v] = combined[v] * palette + found[v];
    }
  }

  // Compact the combined ids to a dense palette.
  std::map<std::uint64_t, std::uint32_t> dense;
  result.colors.resize(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    const auto [it, inserted] = dense.emplace(
        combined[v], static_cast<std::uint32_t>(dense.size()));
    result.colors[v] = it->second;
    (void)inserted;
  }
  result.num_colors = static_cast<std::uint32_t>(dense.size());

  // Measure the guarantee on heavy left nodes (deg >= β ln² n with β chosen
  // so the threshold term αλ ln n stays below deg/(2 log n)).
  result.heavy_threshold = static_cast<std::size_t>(
      std::ceil(2.0 * log_n * static_cast<double>(min_virtual_degree)));
  result.achieves_weak_multicolor = true;
  const std::size_t want_colors =
      static_cast<std::size_t>(std::ceil(2.0 * log_n));
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    if (b.left_degree(u) < result.heavy_threshold) continue;
    result.max_load =
        std::max(result.max_load, max_color_load(b, result.colors, u));
    if (distinct_colors_seen(b, result.colors, u) < want_colors) {
      result.achieves_weak_multicolor = false;
    }
  }
  return result;
}

}  // namespace ds::multicolor
