#include "dist/partition.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace ds::dist {

std::vector<graph::NodeId> degree_balanced_boundaries(
    std::span<const std::size_t> port_offsets, std::size_t num_shards) {
  DS_CHECK_MSG(!port_offsets.empty(),
               "port_offsets must have n + 1 entries (>= 1)");
  const std::size_t n = port_offsets.size() - 1;
  std::vector<graph::NodeId> bounds;
  if (num_shards == 0) {
    DS_CHECK_MSG(n == 0, "zero shards are only valid for an empty node set");
    bounds.push_back(0);
    return bounds;
  }
  bounds.reserve(num_shards + 1);
  bounds.push_back(0);
  const std::size_t total = port_offsets.back();
  for (std::size_t s = 1; s < num_shards; ++s) {
    std::size_t b;
    if (total == 0) {
      // No edges: fall back to node-balanced splitting.
      b = n * s / num_shards;
    } else {
      // Smallest node whose CSR offset reaches the s-th equal port quota;
      // targets and offsets are both non-decreasing, so boundaries are too.
      const std::size_t target = total * s / num_shards;
      b = static_cast<std::size_t>(
          std::lower_bound(port_offsets.begin(), port_offsets.end(), target) -
          port_offsets.begin());
    }
    b = std::max<std::size_t>(b, bounds.back());
    b = std::min(b, n);
    bounds.push_back(static_cast<graph::NodeId>(b));
  }
  bounds.push_back(static_cast<graph::NodeId>(n));
  return bounds;
}

namespace {

/// Owner of node v under contiguous `bounds` (size parts + 1).
std::size_t owner_of(const std::vector<graph::NodeId>& bounds,
                     graph::NodeId v) {
  // upper_bound over bounds[1..parts]: first boundary strictly past v.
  const auto it = std::upper_bound(bounds.begin() + 1, bounds.end(), v);
  return static_cast<std::size_t>(it - (bounds.begin() + 1));
}

}  // namespace

PartitionStats partition_stats(const graph::Graph& g,
                               std::span<const std::size_t> port_offsets,
                               const std::vector<graph::NodeId>& boundaries) {
  DS_CHECK(!boundaries.empty());
  DS_CHECK(port_offsets.size() == g.num_nodes() + 1);
  PartitionStats stats;
  stats.parts = boundaries.size() - 1;
  if (stats.parts == 0) return stats;
  for (const graph::Edge& e : g.edges()) {
    if (owner_of(boundaries, e.u) == owner_of(boundaries, e.v)) {
      ++stats.internal_edges;
    } else {
      ++stats.cut_edges;
    }
  }
  const std::size_t total = port_offsets.back();
  std::size_t largest = 0;
  if (total > 0) {
    for (std::size_t s = 0; s < stats.parts; ++s) {
      largest = std::max(largest, port_offsets[boundaries[s + 1]] -
                                      port_offsets[boundaries[s]]);
    }
    stats.balance_factor = static_cast<double>(largest) * stats.parts /
                           static_cast<double>(total);
  } else if (g.num_nodes() > 0) {
    for (std::size_t s = 0; s < stats.parts; ++s) {
      largest = std::max<std::size_t>(largest,
                                      boundaries[s + 1] - boundaries[s]);
    }
    stats.balance_factor = static_cast<double>(largest) * stats.parts /
                           static_cast<double>(g.num_nodes());
  }
  return stats;
}

Partition::Partition(const local::NetworkTopology& topo,
                     std::size_t num_workers)
    : num_workers_(num_workers) {
  DS_CHECK_MSG(num_workers >= 1, "Partition requires at least one worker");
  const graph::Graph& g = topo.graph();
  const std::span<const std::size_t> offsets = topo.port_offsets();
  DS_CHECK_MSG(topo.total_ports() <
                   std::numeric_limits<std::uint32_t>::max(),
               "Partition supports < 2^32 directed ports");
  bounds_ = degree_balanced_boundaries(offsets, num_workers);
  stats_ = partition_stats(g, offsets, bounds_);

  port_base_.resize(num_workers + 1);
  for (std::size_t w = 0; w <= num_workers; ++w) {
    port_base_[w] = offsets[bounds_[w]];
  }

  out_halo_counts_.assign(num_workers, 0);
  local_delivery_.resize(num_workers);
  links_.assign(num_workers * num_workers, {});

  for (std::size_t w = 0; w < num_workers; ++w) {
    const std::size_t local_ports = num_local_ports(w);
    std::vector<std::size_t>& table = local_delivery_[w];
    table.resize(local_ports);
    std::uint32_t out_index = 0;
    for (graph::NodeId v = first_node(w); v < last_node(w); ++v) {
      const std::size_t row = offsets[v] - port_base_[w];
      const auto& neighbors = g.neighbors(v);
      for (std::size_t p = 0; p < neighbors.size(); ++p) {
        const std::size_t slot = topo.delivery_slot(v, p);
        const std::size_t d = owner(neighbors[p]);
        if (d == w) {
          table[row + p] = slot - port_base_[w];
        } else {
          // Cut port: stage in the out-halo region; both sides of the link
          // append in this same (node, port) iteration order, which is what
          // makes the exchange self-describing.
          table[row + p] = local_ports + out_index;
          HaloLink& link = links_[w * num_workers_ + d];
          link.src_out_slots.push_back(out_index);
          link.dst_slots.push_back(
              static_cast<std::uint32_t>(slot - port_base_[d]));
          ++out_index;
        }
      }
    }
    out_halo_counts_[w] = out_index;
  }
}

std::size_t Partition::owner(graph::NodeId v) const {
  DS_CHECK(v < bounds_.back());
  return owner_of(bounds_, v);
}

Partition Partition::rank_local(const std::vector<graph::NodeId>& bounds,
                                std::size_t rank,
                                const graph::LocalCsr& csr) {
  DS_CHECK_MSG(bounds.size() >= 2, "bounds must have num_workers + 1 entries");
  const std::size_t workers = bounds.size() - 1;
  DS_CHECK(rank < workers);
  DS_CHECK(csr.first == bounds[rank] && csr.last == bounds[rank + 1]);
  const graph::NodeId first = csr.first;
  const graph::NodeId last = csr.last;
  const std::size_t local_ports = csr.offsets.back();
  DS_CHECK_MSG(local_ports < std::numeric_limits<std::uint32_t>::max(),
               "Partition supports < 2^32 directed ports");

  Partition part;
  part.num_workers_ = workers;
  part.bounds_ = bounds;
  part.stats_.parts = workers;  // cut/balance need the whole instance
  // With local offsets serving as arena slots, the own rank's port base is
  // 0; later ranks' bases only need num_local_ports(rank) to come out right.
  part.port_base_.resize(workers + 1);
  for (std::size_t w = 0; w <= workers; ++w) {
    part.port_base_[w] = w <= rank ? 0 : local_ports;
  }
  part.out_halo_counts_.assign(workers, 0);
  part.local_delivery_.resize(workers);
  part.links_.assign(workers * workers, {});

  const auto owned = [&](graph::NodeId v) { return v >= first && v < last; };
  // Reverse-port lookup: ascending rows make the neighbor index a binary
  // search — this is where the canonical sorted-adjacency invariant earns
  // its keep.
  const auto local_slot = [&](graph::NodeId of, graph::NodeId target) {
    const std::size_t row = csr.offsets[of - first];
    const std::size_t row_end = csr.offsets[of - first + 1];
    const auto* begin = csr.adjacency.data() + row;
    const auto* end = csr.adjacency.data() + row_end;
    const auto* it = std::lower_bound(begin, end, target);
    DS_CHECK_MSG(it != end && *it == target,
                 "rank-local CSR rows are inconsistent");
    return row + static_cast<std::size_t>(it - begin);
  };

  std::vector<std::size_t>& table = part.local_delivery_[rank];
  table.resize(local_ports);
  std::uint32_t out_index = 0;
  // (remote u, owned v) pairs per source rank, for the incoming dst columns.
  std::vector<std::vector<graph::Edge>> incoming(workers);
  for (graph::NodeId v = first; v < last; ++v) {
    const std::size_t row = csr.offsets[v - first];
    const std::size_t deg = csr.offsets[v - first + 1] - row;
    for (std::size_t p = 0; p < deg; ++p) {
      const graph::NodeId u = csr.adjacency[row + p];
      if (owned(u)) {
        table[row + p] = local_slot(u, v);
      } else {
        // Same (node asc, port asc) staging order as the full constructor.
        const std::size_t d = owner_of(bounds, u);
        table[row + p] = local_ports + out_index;
        part.links_[rank * workers + d].src_out_slots.push_back(out_index);
        ++out_index;
        incoming[d].push_back(graph::Edge{u, v});
      }
    }
  }
  part.out_halo_counts_[rank] = out_index;

  // Incoming link(s, rank) dst columns: source s walks its own nodes u
  // ascending with ascending rows, so its send order restricted to us is
  // exactly (u, v) lexicographic.
  for (std::size_t s = 0; s < workers; ++s) {
    if (s == rank || incoming[s].empty()) continue;
    std::vector<graph::Edge>& pairs = incoming[s];
    std::sort(pairs.begin(), pairs.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                return a.u != b.u ? a.u < b.u : a.v < b.v;
              });
    HaloLink& link = part.links_[s * workers + rank];
    link.dst_slots.reserve(pairs.size());
    for (const graph::Edge& e : pairs) {
      link.dst_slots.push_back(
          static_cast<std::uint32_t>(local_slot(e.v, e.u)));
    }
  }
  return part;
}

}  // namespace ds::dist
