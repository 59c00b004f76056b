#include "splitting/drr2.hpp"

#include <cmath>

#include "support/check.hpp"

namespace ds::splitting {

graph::BipartiteGraph drr2_iteration(const graph::BipartiteGraph& b,
                                     const orient::SplitConfig& config,
                                     Rng& rng, local::CostMeter* meter) {
  // Pair multigraph on U. For pair (u_i, u_{i+1}) created by right node v,
  // remember the two bipartite edges so the orientation can delete the
  // correct one.
  struct PairEdges {
    graph::EdgeId first_edge;   // bipartite edge (tail candidate u_i, v)
    graph::EdgeId second_edge;  // bipartite edge (head candidate u_{i+1}, v)
  };
  std::vector<graph::Edge> pair_edges;
  std::vector<PairEdges> pair_info;
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    const graph::EdgeIdView edges = b.right_edges(v);
    for (std::size_t i = 0; i + 1 < edges.size(); i += 2) {
      pair_edges.push_back({b.endpoints(edges[i]).first,
                            b.endpoints(edges[i + 1]).first});
      pair_info.push_back(PairEdges{edges[i], edges[i + 1]});
    }
    // If deg(v) is odd, the last neighbor stays unpaired and its edge is
    // always kept.
  }
  const graph::Multigraph pairs(b.num_left(), std::move(pair_edges));

  const graph::Orientation orient =
      orient::degree_split(pairs, config, rng, meter);

  // Delete, per pair, the bipartite edge at the orientation's head: if the
  // pair-edge points a -> c, node c loses its edge to the corresponding
  // right node; if c -> a, node a loses it.
  std::vector<bool> keep(b.num_edges(), true);
  for (graph::EdgeId pe = 0; pe < pairs.num_edges(); ++pe) {
    const graph::Edge ep = pairs.endpoints(pe);
    if (ep.u == ep.v) {
      // Both pair endpoints are the same left node (impossible in a simple
      // bipartite graph, kept for safety): keep one, drop the other.
      keep[pair_info[pe].second_edge] = false;
      continue;
    }
    if (orient.toward_v[pe]) {
      keep[pair_info[pe].second_edge] = false;  // head is u_{i+1}
    } else {
      keep[pair_info[pe].first_edge] = false;  // head is u_i
    }
  }
  return b.filter_edges(keep).first;
}

graph::BipartiteGraph drr2(const graph::BipartiteGraph& b,
                           std::size_t iterations,
                           const orient::SplitConfig& config, Rng& rng,
                           local::CostMeter* meter, DrrTrace* trace) {
  graph::BipartiteGraph current = b;
  if (trace != nullptr) {
    trace->min_left_degree.assign(1, current.min_left_degree());
    trace->rank.assign(1, current.rank());
  }
  for (std::size_t k = 0; k < iterations; ++k) {
    current = drr2_iteration(current, config, rng, meter);
    if (trace != nullptr) {
      trace->min_left_degree.push_back(current.min_left_degree());
      trace->rank.push_back(current.rank());
    }
  }
  return current;
}

double drr2_rank_bound(std::size_t rank, std::size_t k) {
  return static_cast<double>(rank) / std::pow(2.0, static_cast<double>(k)) +
         1.0;
}

}  // namespace ds::splitting
