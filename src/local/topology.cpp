#include "local/topology.hpp"

#include <limits>

#include "support/check.hpp"

namespace ds::local {

std::vector<std::uint32_t> delivery_slots(const graph::Graph& g) {
  DS_CHECK_MSG(2 * g.num_edges() < std::numeric_limits<std::uint32_t>::max(),
               "the LOCAL executors support < 2^32 directed ports");
  std::vector<std::uint32_t> slots(2 * g.num_edges());

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
    slots[offsets[e.u] + pu] = static_cast<std::uint32_t>(offsets[e.v] + pv);
    slots[offsets[e.v] + pv] = static_cast<std::uint32_t>(offsets[e.u] + pu);
  }
  return slots;
}

NodeEnv node_env(graph::NodeId v, std::size_t n, const graph::NodeId* row,
                 std::size_t degree, const std::uint64_t* uids,
                 const Rng& master) {
  NodeEnv env;
  env.node = v;
  env.uid = uids != nullptr ? uids[v] : v;
  env.n = n;
  env.degree = degree;
  env.neighbors = row;
  env.uids = uids;
  // fork(seed, uid) is pure, so per-node streams are independent of
  // construction order.
  env.rng = master.fork(env.uid);
  return env;
}

void NetworkTopology::assign_identity(IdStrategy strategy,
                                      std::uint64_t seed) {
  master_ = Rng(seed);
  if (strategy == IdStrategy::kSequential) {
    uids_ = std::vector<std::uint64_t>();  // uid == node id: no table
  } else {
    Rng rng(seed ^ 0x1D5ull);
    uids_ = assign_ids(*graph_, strategy, rng);
  }
  identified_ = true;
}

NodeEnv NetworkTopology::make_env(graph::NodeId v) const {
  DS_CHECK_MSG(identified_, "make_env before any assign_identity");
  DS_CHECK(v < graph_->num_nodes());
  const graph::NeighborView row = graph_->neighbors(v);
  return node_env(v, graph_->num_nodes(), row.data(), row.size(),
                  uids_.empty() ? nullptr : uids_.data(), master_);
}

}  // namespace ds::local
