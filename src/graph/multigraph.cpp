#include "graph/multigraph.hpp"

#include <cstdlib>

#include "support/check.hpp"

namespace ds::graph {

Multigraph::Multigraph(std::size_t n, std::vector<Edge> edges)
    : offsets_(n + 1, 0), endpoints_(std::move(edges)) {
  DS_CHECK(endpoints_.size() <= EdgeId(-1));
  for (const Edge& e : endpoints_) {
    DS_CHECK(e.u < n && e.v < n);
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];  // self-loop counted twice by design
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  // offsets_[v] serves as row v's cursor, then one shift restores the
  // starts (as in the Graph constructor).
  incident_.resize(2 * endpoints_.size());
  for (EdgeId e = 0; e < endpoints_.size(); ++e) {
    incident_[offsets_[endpoints_[e].u]++] = e;
    incident_[offsets_[endpoints_[e].v]++] = e;
  }
  for (std::size_t v = n; v > 0; --v) offsets_[v] = offsets_[v - 1];
  offsets_[0] = 0;
}

Edge Multigraph::endpoints(EdgeId e) const {
  DS_CHECK(e < endpoints_.size());
  return endpoints_[e];
}

EdgeIdView Multigraph::incident_edges(NodeId v) const {
  DS_CHECK(v < num_nodes());
  return {incident_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t Multigraph::degree(NodeId v) const {
  return incident_edges(v).size();
}

NodeId Multigraph::other_endpoint(EdgeId e, NodeId v) const {
  const Edge ep = endpoints(e);
  DS_CHECK(ep.u == v || ep.v == v);
  if (ep.u == v) return ep.v;
  return ep.u;
}

bool Orientation::directed_out_of(const Multigraph& g, EdgeId e,
                                  NodeId x) const {
  const Edge ep = g.endpoints(e);
  DS_CHECK(ep.u == x || ep.v == x);
  DS_CHECK(e < toward_v.size());
  if (ep.u == ep.v) {
    // Self-loop: by convention one out and one in; callers that need
    // per-traversal direction should not ask through this interface.
    return true;
  }
  return ep.u == x ? toward_v[e] : !toward_v[e];
}

std::size_t orientation_discrepancy(const Multigraph& g,
                                    const Orientation& orient, NodeId v) {
  DS_CHECK(orient.toward_v.size() == g.num_edges());
  long long balance = 0;
  for (EdgeId e : g.incident_edges(v)) {
    const Edge ep = g.endpoints(e);
    if (ep.u == ep.v) continue;  // self-loop: one in, one out, net zero
    balance += orient.directed_out_of(g, e, v) ? 1 : -1;
  }
  return static_cast<std::size_t>(std::llabs(balance));
}

}  // namespace ds::graph
