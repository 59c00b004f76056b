#include "dist/partition.hpp"

#include <algorithm>
#include <array>
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

/// A rank's span arena — its own ports, then one out-halo slot per cut
/// port — is indexed by the 32-bit delivery tables.
void check_arena_slots(std::size_t local_ports, std::size_t cut_ports) {
  DS_CHECK_MSG(
      local_ports + cut_ports < std::numeric_limits<std::uint32_t>::max(),
      "Partition supports < 2^32 arena slots per rank");
}

/// Stable LSD radix sort of `keys` by their high 32 bits, all below
/// `range`: one counting pass per 8-bit digit of range - 1, so O(keys) per
/// pass and no memory beyond `spare` (resized to keys.size()).
void sort_by_high_word(std::vector<std::uint64_t>& keys, std::size_t range,
                       std::vector<std::uint64_t>& spare) {
  spare.resize(keys.size());
  for (unsigned shift = 32; (std::uint64_t{1} << (shift - 32)) < range;
       shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t key : keys) ++start[((key >> shift) & 0xFF) + 1];
    for (std::size_t b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (const std::uint64_t key : keys) {
      spare[start[(key >> shift) & 0xFF]++] = key;
    }
    keys.swap(spare);
  }
}

}  // namespace

std::size_t owner_of(const std::vector<graph::NodeId>& boundaries,
                     graph::NodeId v) {
  // upper_bound over boundaries[1..parts]: first boundary strictly past v.
  const auto it =
      std::upper_bound(boundaries.begin() + 1, boundaries.end(), v);
  return static_cast<std::size_t>(it - (boundaries.begin() + 1));
}

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
  bounds_ = degree_balanced_boundaries(offsets, num_workers);
  stats_ = partition_stats(g, offsets, bounds_);

  port_base_.resize(num_workers + 1);
  for (std::size_t w = 0; w <= num_workers; ++w) {
    port_base_[w] = offsets[bounds_[w]];
  }

  links_.assign(num_workers * num_workers, {});

  // The global delivery slots, in the one table every worker reads: each
  // entry is read once and overwritten with its worker's local arena slot.
  // (delivery_slots refuses 2^32 or more ports, so every slot fits.)
  delivery_ = local::delivery_slots(g);
  std::vector<std::uint32_t> staged(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    const graph::NodeId first = first_node(w);
    const graph::NodeId last = last_node(w);
    const auto owned = [&](graph::NodeId u) { return u >= first && u < last; };
    // Count each link's cut ports first: link (w, d) stages its ports in
    // one contiguous out-halo range, the ranges in peer order.
    std::fill(staged.begin(), staged.end(), 0);
    for (graph::NodeId v = first; v < last; ++v) {
      for (const graph::NodeId u : g.neighbors(v)) {
        if (!owned(u)) ++staged[owner(u)];
      }
    }
    std::size_t cut_ports = 0;
    for (std::size_t d = 0; d < num_workers; ++d) {
      HaloLink& link = links_[w * num_workers_ + d];
      link.out_begin = static_cast<std::uint32_t>(cut_ports);
      link.out_count = staged[d];
      link.dst_slots.reserve(staged[d]);
      cut_ports += staged[d];
      staged[d] = 0;
    }
    const std::size_t local_ports = num_local_ports(w);
    check_arena_slots(local_ports, cut_ports);

    for (graph::NodeId v = first; v < last; ++v) {
      std::uint32_t* row = delivery_.data() + offsets[v];
      const auto& neighbors = g.neighbors(v);
      for (std::size_t p = 0; p < neighbors.size(); ++p) {
        const std::size_t slot = row[p];
        if (owned(neighbors[p])) {
          row[p] = static_cast<std::uint32_t>(slot - port_base_[w]);
        } else {
          // Cut port: the next slot of its link's range. Both sides of the
          // link list it in this same (node, port) order, which is what
          // makes the exchange self-describing.
          const std::size_t d = owner(neighbors[p]);
          HaloLink& link = links_[w * num_workers_ + d];
          row[p] = static_cast<std::uint32_t>(local_ports + link.out_begin +
                                              staged[d]++);
          link.dst_slots.push_back(
              static_cast<std::uint32_t>(slot - port_base_[d]));
        }
      }
    }
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
  check_arena_slots(local_ports, 0);

  Partition part;
  part.num_workers_ = workers;
  part.bounds_ = bounds;
  part.stats_.parts = workers;  // cut/balance need the whole instance
  // With local offsets serving as arena slots, the own rank's port base is
  // 0; later ranks' bases only need num_local_ports(rank) to come out right
  // (every other rank's delivery table is then empty).
  part.port_base_.resize(workers + 1);
  for (std::size_t w = 0; w <= workers; ++w) {
    part.port_base_[w] = w <= rank ? 0 : local_ports;
  }
  part.links_.assign(workers * workers, {});

  // One walk over the owned rows, which ascend (the canonical layout). An
  // internal port (v, p) toward u is delivered at v's position in u's row:
  // v ascends over the walk, so a cursor per owned row only moves forward.
  // A cut port toward peer d is recorded in `incoming[d]` as
  // (u - first(d)) << 32 | slot. The walk meets them in node-then-port
  // order, the canonical order of the outgoing link(rank, d), and the
  // port's own slot is where d's message on that edge lands.
  std::vector<std::uint32_t>& table = part.delivery_;
  table.resize(local_ports);
  std::vector<std::uint32_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  std::vector<std::vector<std::uint64_t>> incoming(workers);
  for (graph::NodeId v = first; v < last; ++v) {
    const std::size_t row_end = csr.offsets[v - first + 1];
    for (std::size_t slot = csr.offsets[v - first]; slot < row_end; ++slot) {
      const graph::NodeId u = csr.adjacency[slot];
      if (u >= first && u < last) {
        std::uint32_t& c = cursor[u - first];
        const std::size_t u_end = csr.offsets[u - first + 1];
        while (c < u_end && csr.adjacency[c] < v) ++c;
        DS_CHECK_MSG(c < u_end && csr.adjacency[c] == v,
                     "rank-local CSR rows are inconsistent");
        table[slot] = c++;
      } else {
        const std::size_t d = owner_of(bounds, u);
        incoming[d].push_back(
            (static_cast<std::uint64_t>(u - bounds[d]) << 32) | slot);
      }
    }
  }

  // The outgoing links' out-halo ranges, in peer order: the i-th cut port
  // toward d in walk order stages at out_begin + i.
  std::size_t cut_ports = 0;
  for (std::size_t d = 0; d < workers; ++d) {
    HaloLink& link = part.links_[rank * workers + d];
    link.out_begin = static_cast<std::uint32_t>(cut_ports);
    link.out_count = static_cast<std::uint32_t>(incoming[d].size());
    for (const std::uint64_t key : incoming[d]) {
      table[static_cast<std::uint32_t>(key)] =
          static_cast<std::uint32_t>(local_ports + cut_ports++);
    }
  }
  check_arena_slots(local_ports, cut_ports);

  // d sends in (u, v) order — its nodes u ascend, and so do their rows —
  // while the walk met d's u's in v order: a stable sort by u yields the
  // incoming link(d, rank)'s dst column.
  std::vector<std::uint64_t> spare;
  for (std::size_t d = 0; d < workers; ++d) {
    if (incoming[d].empty()) continue;
    sort_by_high_word(incoming[d], bounds[d + 1] - bounds[d], spare);
    std::vector<std::uint32_t>& dst = part.links_[d * workers + rank].dst_slots;
    dst.reserve(incoming[d].size());
    for (const std::uint64_t key : incoming[d]) {
      dst.push_back(static_cast<std::uint32_t>(key));
    }
    incoming[d] = {};
  }
  return part;
}

}  // namespace ds::dist
