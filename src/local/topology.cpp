#include "local/topology.hpp"

#include "support/check.hpp"

namespace ds::local {

NetworkTopology::NetworkTopology(const graph::Graph& g, IdStrategy strategy,
                                 std::uint64_t seed)
    : graph_(&g), seed_(seed), master_(seed) {
  Rng rng(seed ^ 0x1D5ull);
  uids_ = assign_ids(g, strategy, rng);

  const std::size_t n = g.num_nodes();
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + g.degree(v);
  }
  reverse_ports_.resize(total_ports());
  delivery_slots_.resize(total_ports());

  // add_edge appends each endpoint to the other's adjacency list (and a
  // generator image fills its rows in the same edge order), so for the
  // e-th edge {u, v} the ports at u and v are the counts of earlier edges
  // incident to u resp. v. One pass over the edge list therefore yields both
  // reverse ports of every edge in O(m) — no per-edge adjacency scan.
  std::vector<std::size_t> cursor(n, 0);
  for (const graph::Edge& e : g.edges()) {
    const std::size_t pu = cursor[e.u]++;
    const std::size_t pv = cursor[e.v]++;
    DS_CHECK(g.neighbors(e.u)[pu] == e.v);
    DS_CHECK(g.neighbors(e.v)[pv] == e.u);
    reverse_ports_[offsets_[e.u] + pu] = static_cast<std::uint32_t>(pv);
    reverse_ports_[offsets_[e.v] + pv] = static_cast<std::uint32_t>(pu);
    delivery_slots_[offsets_[e.u] + pu] = offsets_[e.v] + pv;
    delivery_slots_[offsets_[e.v] + pv] = offsets_[e.u] + pu;
  }
}

std::size_t NetworkTopology::reverse_port(graph::NodeId v,
                                          std::size_t p) const {
  DS_CHECK(v < graph_->num_nodes());
  DS_CHECK(p < graph_->degree(v));
  return reverse_ports_[offsets_[v] + p];
}

NodeEnv NetworkTopology::make_env(graph::NodeId v) const {
  DS_CHECK(v < graph_->num_nodes());
  NodeEnv env;
  env.node = v;
  env.uid = uids_[v];
  env.n = graph_->num_nodes();
  const graph::NeighborView row = graph_->neighbors(v);
  env.degree = row.size();
  env.neighbors = row.data();
  env.uids = uids_.data();
  // Identical to the historical Network derivation: fork(seed, uid) is pure,
  // so per-node streams are independent of construction order.
  env.rng = master_.fork(uids_[v]);
  return env;
}

}  // namespace ds::local
