#include "local/topology.hpp"

#include <limits>

#include "support/check.hpp"

namespace ds::local {

NetworkTopology::NetworkTopology(const graph::Graph& g) : graph_(&g) {
  DS_CHECK_MSG(total_ports() < std::numeric_limits<std::uint32_t>::max(),
               "the LOCAL executors support < 2^32 directed ports");
  delivery_slots_.resize(total_ports());

  // A Graph's rows list neighbors in edge order (graph/graph.hpp), so for
  // the e-th edge {u, v} the ports at u and v are the counts of earlier
  // edges incident to u resp. v. One pass over the edge list therefore
  // yields both delivery slots of every edge in O(m) — no per-edge
  // adjacency scan.
  const std::span<const std::size_t> offsets = g.offsets();
  std::vector<std::size_t> cursor(g.num_nodes(), 0);
  for (const graph::Edge& e : g.edges()) {
    const std::size_t pu = cursor[e.u]++;
    const std::size_t pv = cursor[e.v]++;
    DS_CHECK(g.neighbors(e.u)[pu] == e.v);
    DS_CHECK(g.neighbors(e.v)[pv] == e.u);
    delivery_slots_[offsets[e.u] + pu] =
        static_cast<std::uint32_t>(offsets[e.v] + pv);
    delivery_slots_[offsets[e.v] + pv] =
        static_cast<std::uint32_t>(offsets[e.u] + pu);
  }
}

NetworkTopology::NetworkTopology(const graph::Graph& g, IdStrategy strategy,
                                 std::uint64_t seed)
    : NetworkTopology(g) {
  assign_identity(strategy, seed);
}

void NetworkTopology::assign_identity(IdStrategy strategy,
                                      std::uint64_t seed) {
  master_ = Rng(seed);
  Rng rng(seed ^ 0x1D5ull);
  uids_ = assign_ids(*graph_, strategy, rng);
}

NodeEnv NetworkTopology::make_env(graph::NodeId v) const {
  // uids_ is empty until assign_identity, so this also catches a missing
  // identity.
  DS_CHECK(v < uids_.size());
  NodeEnv env;
  env.node = v;
  env.uid = uids_[v];
  env.n = graph_->num_nodes();
  const graph::NeighborView row = graph_->neighbors(v);
  env.degree = row.size();
  env.neighbors = row.data();
  env.uids = uids_.data();
  // fork(seed, uid) is pure, so per-node streams are independent of
  // construction order.
  env.rng = master_.fork(uids_[v]);
  return env;
}

}  // namespace ds::local
