#include "splitting/degree_rank_reduction.hpp"

#include <cmath>

#include "support/check.hpp"

namespace ds::splitting {

graph::BipartiteGraph drr1_iteration(const graph::BipartiteGraph& b,
                                     const orient::SplitConfig& config,
                                     Rng& rng, local::CostMeter* meter) {
  // The edge multigraph over U ∪ V is the unified edge list: edge e joins
  // left node u (index u) to right node v (index |U| + v), left end first,
  // so multigraph and bipartite edge ids coincide.
  const graph::EdgeView unified = b.unified().edges();
  const graph::Multigraph m(b.num_nodes(), {unified.begin(), unified.end()});
  const graph::Orientation orient = orient::degree_split(m, config, rng, meter);
  // Keep exactly the edges oriented from U towards V (toward_v == true since
  // the left endpoint was added first).
  std::vector<bool> keep(b.num_edges());
  for (graph::EdgeId e = 0; e < b.num_edges(); ++e) {
    keep[e] = orient.toward_v[e];
  }
  return b.filter_edges(keep).first;
}

graph::BipartiteGraph degree_rank_reduction(const graph::BipartiteGraph& b,
                                            std::size_t iterations,
                                            const orient::SplitConfig& config,
                                            Rng& rng, local::CostMeter* meter,
                                            DrrTrace* trace) {
  graph::BipartiteGraph current = b;
  if (trace != nullptr) {
    trace->min_left_degree.assign(1, current.min_left_degree());
    trace->rank.assign(1, current.rank());
  }
  for (std::size_t k = 0; k < iterations; ++k) {
    current = drr1_iteration(current, config, rng, meter);
    if (trace != nullptr) {
      trace->min_left_degree.push_back(current.min_left_degree());
      trace->rank.push_back(current.rank());
    }
  }
  return current;
}

double drr1_delta_bound(std::size_t delta, double eps, std::size_t k) {
  return std::pow((1.0 - eps) / 2.0, static_cast<double>(k)) *
             static_cast<double>(delta) -
         2.0;
}

double drr1_rank_bound(std::size_t rank, double eps, std::size_t k) {
  return std::pow((1.0 + eps) / 2.0, static_cast<double>(k)) *
             static_cast<double>(rank) +
         3.0;
}

}  // namespace ds::splitting
