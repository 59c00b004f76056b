#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "mis/mis.hpp"
#include "reductions/uniform_splitting.hpp"
#include "support/check.hpp"

namespace ds::hypergraph {

Hypergraph::Hypergraph(std::size_t num_vertices) : incident_(num_vertices) {}

HyperedgeId Hypergraph::add_edge(std::vector<VertexId> vertices) {
  DS_CHECK_MSG(!vertices.empty(), "hyperedges must be non-empty");
  std::set<VertexId> distinct(vertices.begin(), vertices.end());
  DS_CHECK_MSG(distinct.size() == vertices.size(),
               "hyperedge vertices must be distinct");
  const auto id = static_cast<HyperedgeId>(edges_.size());
  for (VertexId v : vertices) {
    DS_CHECK(v < incident_.size());
    incident_[v].push_back(id);
  }
  edges_.push_back(std::move(vertices));
  return id;
}

const std::vector<VertexId>& Hypergraph::vertices(HyperedgeId e) const {
  DS_CHECK(e < edges_.size());
  return edges_[e];
}

const std::vector<HyperedgeId>& Hypergraph::incident(VertexId v) const {
  DS_CHECK(v < incident_.size());
  return incident_[v];
}

std::size_t Hypergraph::degree(VertexId v) const { return incident(v).size(); }

std::size_t Hypergraph::rank() const {
  std::size_t r = 0;
  for (const auto& e : edges_) r = std::max(r, e.size());
  return r;
}

std::size_t Hypergraph::min_degree() const {
  std::size_t d = SIZE_MAX;
  for (const auto& inc : incident_) d = std::min(d, inc.size());
  return incident_.empty() ? 0 : d;
}

std::size_t Hypergraph::max_degree() const {
  std::size_t d = 0;
  for (const auto& inc : incident_) d = std::max(d, inc.size());
  return d;
}

graph::BipartiteGraph Hypergraph::incidence() const {
  std::vector<graph::Edge> pins;
  for (HyperedgeId e = 0; e < edges_.size(); ++e) {
    for (VertexId v : edges_[e]) pins.push_back({v, e});
  }
  return graph::BipartiteGraph(num_vertices(), num_edges(), std::move(pins));
}

graph::Graph Hypergraph::conflict_graph() const {
  std::vector<graph::Edge> edges;
  std::set<std::pair<HyperedgeId, HyperedgeId>> added;
  for (const auto& inc : incident_) {
    for (std::size_t i = 0; i < inc.size(); ++i) {
      for (std::size_t j = i + 1; j < inc.size(); ++j) {
        const auto a = std::min(inc[i], inc[j]);
        const auto b = std::max(inc[i], inc[j]);
        if (a != b && added.insert({a, b}).second) {
          edges.push_back({a, b});
        }
      }
    }
  }
  return graph::Graph(num_edges(), std::move(edges));
}

Hypergraph from_graph(const graph::Graph& g) {
  Hypergraph h(g.num_nodes());
  for (const graph::Edge& e : g.edges()) {
    h.add_edge({e.u, e.v});
  }
  return h;
}

Hypergraph random_regular_hypergraph(std::size_t nv, std::size_t d,
                                     std::size_t r, Rng& rng) {
  DS_CHECK(r >= 1 && r <= nv);
  Hypergraph h(nv);
  // Slot model: nv*d vertex slots, shuffled, consumed r at a time. A
  // hyperedge must have distinct vertices; duplicates within a window are
  // repaired by swapping with random later slots.
  std::vector<VertexId> slots;
  slots.reserve(nv * d);
  for (VertexId v = 0; v < nv; ++v) {
    for (std::size_t i = 0; i < d; ++i) slots.push_back(v);
  }
  rng.shuffle(slots);
  for (std::size_t base = 0; base + 1 <= slots.size(); base += r) {
    const std::size_t end = std::min(base + r, slots.size());
    // Repair duplicate vertices within [base, end) by swapping with later
    // random slots; give up on a window after a bounded number of tries
    // (drop the offending slot instead — degree slips by one, within the
    // advertised tolerance).
    std::vector<VertexId> edge;
    std::set<VertexId> seen;
    for (std::size_t i = base; i < end; ++i) {
      int tries = 0;
      while (!seen.insert(slots[i]).second && tries < 64) {
        if (end >= slots.size()) break;
        const std::size_t j = end + rng.next_index(slots.size() - end);
        std::swap(slots[i], slots[j]);
        ++tries;
      }
      if (seen.count(slots[i]) > 0 &&
          std::find(edge.begin(), edge.end(), slots[i]) == edge.end()) {
        edge.push_back(slots[i]);
      }
    }
    if (!edge.empty()) h.add_edge(std::move(edge));
  }
  return h;
}

bool is_hyperedge_split(const Hypergraph& h, const std::vector<bool>& is_red,
                        double eps, std::size_t degree_threshold) {
  DS_CHECK(is_red.size() == h.num_edges());
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    const std::size_t d = h.degree(v);
    if (d < degree_threshold || d == 0) continue;
    std::size_t red = 0;
    for (HyperedgeId e : h.incident(v)) {
      if (is_red[e]) ++red;
    }
    const auto cap = static_cast<std::size_t>(
        std::ceil((0.5 + eps) * static_cast<double>(d)));
    if (red > cap || d - red > cap) return false;
  }
  return true;
}

HyperedgeSplitResult hyperedge_split(const Hypergraph& h, double eps,
                                     std::size_t degree_threshold, Rng& rng,
                                     local::CostMeter* meter) {
  HyperedgeSplitResult result;
  result.is_red.assign(h.num_edges(), true);
  if (h.num_edges() == 0) return result;
  // Constraint instance: one left node per constrained vertex; right nodes
  // are the hyperedges.
  graph::LeftId nu = 0;
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (h.degree(v) < degree_threshold || h.degree(v) == 0) continue;
    for (HyperedgeId e : h.incident(v)) edges.push_back({nu, e});
    ++nu;
  }
  if (nu == 0) return result;
  const graph::BipartiteGraph b(nu, h.num_edges(), std::move(edges));
  const auto core = reductions::two_sided_split_bipartite(b, eps, rng, meter);
  result.is_red = core.is_red;
  result.initial_potential = core.initial_potential;
  result.derandomized = core.derandomized;
  DS_CHECK_MSG(is_hyperedge_split(h, result.is_red, eps, degree_threshold),
               "hyperedge_split: bipartite core returned an invalid split");
  return result;
}

bool is_maximal_matching(const Hypergraph& h,
                         const std::vector<bool>& in_matching) {
  DS_CHECK(in_matching.size() == h.num_edges());
  // Disjointness: no vertex covered twice.
  std::vector<int> covered(h.num_vertices(), 0);
  for (HyperedgeId e = 0; e < h.num_edges(); ++e) {
    if (!in_matching[e]) continue;
    for (VertexId v : h.vertices(e)) {
      if (++covered[v] > 1) return false;
    }
  }
  // Maximality: every unmatched hyperedge touches a covered vertex.
  for (HyperedgeId e = 0; e < h.num_edges(); ++e) {
    if (in_matching[e]) continue;
    bool blocked = false;
    for (VertexId v : h.vertices(e)) {
      if (covered[v] > 0) {
        blocked = true;
        break;
      }
    }
    if (!blocked) return false;
  }
  return true;
}

std::vector<bool> greedy_maximal_matching(const Hypergraph& h) {
  std::vector<bool> in_matching(h.num_edges(), false);
  std::vector<bool> covered(h.num_vertices(), false);
  for (HyperedgeId e = 0; e < h.num_edges(); ++e) {
    bool free = true;
    for (VertexId v : h.vertices(e)) {
      if (covered[v]) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    in_matching[e] = true;
    for (VertexId v : h.vertices(e)) covered[v] = true;
  }
  DS_CHECK_MSG(is_maximal_matching(h, in_matching),
               "greedy hypergraph matching failed verification");
  return in_matching;
}

std::vector<bool> randomized_maximal_matching(const Hypergraph& h,
                                              std::uint64_t seed,
                                              std::size_t* executed_rounds_out,
                                              local::CostMeter* meter) {
  // A maximal matching of H is exactly a maximal independent set of its
  // conflict graph; one simulated conflict-graph round costs 2 rounds on H
  // (hyperedge -> shared vertex -> hyperedge), charged on the meter.
  const graph::Graph conflict = h.conflict_graph();
  local::CostMeter luby_meter;
  const mis::MisOutcome outcome = mis::luby(conflict, seed, &luby_meter);
  if (executed_rounds_out != nullptr) {
    *executed_rounds_out = outcome.executed_rounds;
  }
  if (meter != nullptr) {
    meter->charge("conflict-graph-luby",
                  2.0 * static_cast<double>(luby_meter.executed_rounds()));
  }
  DS_CHECK_MSG(is_maximal_matching(h, outcome.in_mis),
               "randomized hypergraph matching failed verification");
  return outcome.in_mis;
}

}  // namespace ds::hypergraph
