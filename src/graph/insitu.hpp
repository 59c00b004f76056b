#pragma once

/// \file insitu.hpp
/// Rank-local in-situ graph generation (KaGen-style): every generator family
/// here is a pure function of `(spec, seed)` whose edge set can be produced
/// *per node range* — rank r materializes only the edges its `dist::Partition`
/// range is responsible for, so no process ever holds the whole topology.
///
/// Two emission disciplines exist:
///
///  * **Row families** (torus, gnp, ba, rgg, biregular) — every edge has one
///    deterministic *emitting endpoint*; `shard(first, last)` returns exactly
///    the edges whose emitting endpoint lies in `[first, last)`. Shards over a
///    disjoint cover of `[0, n)` are disjoint and their union is the full edge
///    set, so cut edges must be exchanged with the other endpoint's owner at
///    setup (one message per cut edge, through the existing transport).
///
///  * **Self-discovering families** (gnm, kronecker) — edges come from a
///    global index stream of O(m) draws; every rank scans the whole stream
///    (O(m) *time*, O(local) *memory*) and keeps the edges with at least one
///    endpoint in range. No exchange is needed: both owners of a cut edge
///    discover it independently from the same draw.
///
/// All randomness is counter-based over `ds::splitmix64` — there is no
/// sequential generator state, which is what makes sharding exact. The
/// sequential reference (`generate_full`) is defined as shard(0, n) sorted
/// lexicographically, so rank-local and full-materialization runs agree
/// bit-for-bit by construction.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace ds::graph {

/// A parsed generator instance description, e.g. "torus:w=2240,h=2240" or
/// "gnp:n=100000,deg=8". The canonical string (sorted keys) identifies the
/// instance in digests and cache keys.
struct GenSpec {
  std::string family;
  std::map<std::string, std::uint64_t> params;

  /// Parses "family:key=val,key=val". Throws ds::CheckError on malformed
  /// input or an unknown family.
  static GenSpec parse(const std::string& text);

  /// "family:k=v,..." with keys in sorted order — stable across parses.
  [[nodiscard]] std::string canonical() const;

  [[nodiscard]] std::uint64_t param(const std::string& key,
                                    std::uint64_t fallback) const;
  [[nodiscard]] std::uint64_t required(const std::string& key) const;
};

/// Rank-local CSR over one node range: full adjacency rows (owned and remote
/// neighbors alike, ascending) for nodes in [first, last). The shape that
/// dist::Partition::rank_local and the in-situ runner consume.
struct LocalCsr {
  NodeId first = 0;
  NodeId last = 0;
  std::vector<std::size_t> offsets;  ///< last - first + 1 entries
  std::vector<NodeId> adjacency;     ///< flat rows, each ascending
};

/// Builds the rank-local CSR from the complete incident edge list of a range
/// (every edge with >= 1 endpoint in [first, last), sorted and deduplicated:
/// strictly increasing by (u, v), each with u < v), which fills every row
/// in ascending order. Throws ds::CheckError when the list breaks that
/// precondition.
LocalCsr build_local_csr(const std::vector<Edge>& incident, NodeId first,
                         NodeId last);

/// Deterministic sharded generator for one (spec, seed) instance.
class DistributedGenerator {
 public:
  /// Validates the spec; throws ds::CheckError on bad parameters.
  DistributedGenerator(GenSpec spec, std::uint64_t seed);

  [[nodiscard]] std::size_t num_nodes() const { return n_; }

  /// Bipartite left-side size (biregular family); 0 for general graphs.
  [[nodiscard]] std::size_t num_left() const { return nu_; }

  /// True for index-stream families (gnm, kronecker) whose shards already
  /// contain every incident edge — no setup-time cut exchange required.
  [[nodiscard]] bool self_discovering() const { return self_discovering_; }

  [[nodiscard]] const GenSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The edges this node range is responsible for (see file comment for the
  /// two disciplines), sorted lexicographically, u < v, no duplicates.
  [[nodiscard]] std::vector<Edge> shard(NodeId first, NodeId last) const;

  /// Sequential reference: the full instance as a read-only CSR image
  /// (`Graph::mapped`), built in one counting pass over shard(0, n). Rows
  /// are filled in edge order, so every row is ascending and equals what
  /// `add_edge` over the same list builds; copies of the Graph share the
  /// image. Materializes everything — use only for control instances and
  /// baseline comparisons.
  [[nodiscard]] Graph generate_full() const;

  /// The family names shard() understands, for CI matrices and tests.
  static const std::vector<std::string>& families();

 private:
  GenSpec spec_;
  std::uint64_t seed_ = 0;
  std::size_t n_ = 0;
  std::size_t nu_ = 0;
  bool self_discovering_ = false;
};

}  // namespace ds::graph
