#include "splitting/delta6r.hpp"

#include <algorithm>
#include <cmath>

#include "splitting/deterministic.hpp"
#include "splitting/drr2.hpp"
#include "splitting/trivial_random.hpp"
#include "support/check.hpp"

namespace ds::splitting {

Coloring delta6r_split(const graph::BipartiteGraph& b, bool randomized,
                       Rng& rng, local::CostMeter* meter, Delta6rInfo* info,
                       std::size_t n_override) {
  const std::size_t delta = b.min_left_degree();
  const std::size_t r = b.rank();
  DS_CHECK_MSG(delta >= 6 * r, "Theorem 2.7 requires δ >= 6r");
  DS_CHECK(delta >= 2);
  const std::size_t n =
      n_override != 0 ? n_override : std::max<std::size_t>(4, b.num_nodes());
  const double log_n = std::log2(static_cast<double>(n));

  Delta6rInfo local_info;
  if (static_cast<double>(delta) >= 2.0 * log_n) {
    local_info.used_trivial_path = true;
    Coloring colors;
    if (randomized) {
      // Las Vegas wrapper around the 0-round algorithm: w.h.p. one attempt.
      for (int attempt = 0; attempt < 200; ++attempt) {
        colors = trivial_random_split(b, rng, meter);
        if (is_weak_splitting(b, colors)) break;
      }
      DS_CHECK_MSG(is_weak_splitting(b, colors),
                   "trivial algorithm kept failing despite δ >= 2 log n");
    } else {
      colors = deterministic_weak_split(b, rng, meter, nullptr, n);
    }
    if (info != nullptr) *info = local_info;
    return colors;
  }

  // DRR-II phase: ⌈log r⌉ iterations with ε = 1/(10Δ).
  graph::BipartiteGraph reduced = b;
  if (r > 1) {
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(r))));
    orient::SplitConfig config;
    config.eps = 1.0 / (10.0 * static_cast<double>(
                                   std::max<std::size_t>(1, b.max_left_degree())));
    config.randomized = randomized;
    reduced = drr2(b, k, config, rng, meter);
    local_info.drr2_iterations = k;
  }
  local_info.final_rank = reduced.rank();
  local_info.final_min_degree = reduced.min_left_degree();
  DS_CHECK_MSG(local_info.final_rank <= 1, "DRR-II must reach rank 1");
  DS_CHECK_MSG(local_info.final_min_degree >= 2,
               "δ >= 6r must leave min degree >= 2 after DRR-II");

  // Rank 1: each left node picks its first remaining neighbor red and its
  // second blue; no right node has two left neighbors, so picks are
  // conflict-free. Unclaimed right nodes default to red.
  Coloring colors(b.num_right(), Color::kRed);
  for (graph::LeftId u = 0; u < reduced.num_left(); ++u) {
    const graph::EdgeIdView edges = reduced.left_edges(u);
    DS_CHECK(edges.size() >= 2);
    colors[reduced.endpoints(edges[0]).second] = Color::kRed;
    colors[reduced.endpoints(edges[1]).second] = Color::kBlue;
  }
  // One round for the picks.
  if (meter != nullptr) meter->add_executed(1);
  DS_CHECK_MSG(is_weak_splitting(b, colors),
               "Theorem 2.7 output failed verification");
  if (info != nullptr) *info = local_info;
  return colors;
}

}  // namespace ds::splitting
