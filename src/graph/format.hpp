#pragma once

/// \file format.hpp
/// The `.dsg` binary graph format: a versioned, digest-carrying on-disk CSR
/// image that loads by `mmap` in O(1) — the scale-path input source next to
/// generators and text edge lists.
///
/// # Layout (all integers little-endian host order; the endian tag rejects
/// a byte-swapped reader loudly)
///
///     offset  size        field
///     0       4           magic "DSGF"
///     4       2           format version (kDsgVersion)
///     6       2           endian tag 0xFEFF
///     8       8           n   (node count)
///     16      8           m   (edge count)
///     24      8           nu  (bipartite left-side size; 0 = general graph)
///     32      8           generator seed (0 when packed from a file)
///     40      8           payload digest (FNV-1a over the three sections)
///     48      16          reserved (zero)
///     64      8(n+1)      CSR offsets, uint64 (offsets[n] == 2m)
///     ...     8m          flat adjacency rows, 2m × uint32
///     ...     8m          edge list, m × {uint32 u, uint32 v} (u <= v)
///
/// Every section is 8-byte aligned by construction (the adjacency section is
/// 2m × 4 bytes = 8m). The loader validates magic/version/endian/sizes in
/// O(1); the payload digest is verified only on request (it reads the whole
/// file, which the O(1) scale path must not).
///
/// A bipartite instance is stored as its unified general graph (left nodes
/// 0..nu-1, right nodes nu..n-1) with the `nu` header field set;
/// `bipartite_from_unified` reconstructs the `BipartiteGraph`.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/bipartite.hpp"
#include "graph/graph.hpp"

namespace ds::graph {

/// Current `.dsg` format version; bumped on any layout change.
constexpr std::uint16_t kDsgVersion = 1;

/// Violation of the on-disk format: bad magic, wrong version or endianness,
/// truncated or size-inconsistent file, digest mismatch. Tools treat this
/// as a usage error (exit 1 with the reason) rather than a crash.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The parsed `.dsg` header fields a caller may care about.
struct DsgHeader {
  std::uint16_t version = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t nu = 0;   ///< bipartite left-side size; 0 = general
  std::uint64_t seed = 0;
  std::uint64_t payload_digest = 0;
};

/// Writes `g` to `path` in the `.dsg` format. `nu` tags a unified bipartite
/// instance (0 for general graphs); `seed` records the generator seed for
/// provenance. Throws FormatError on I/O failure.
void write_dsg(const Graph& g, const std::string& path, std::uint64_t nu = 0,
               std::uint64_t seed = 0);

/// Memory-maps `path` and returns a Graph viewing it. O(1) apart from
/// header/size validation and offsets[n] == 2m; the interior is trusted
/// (see `check_dsg_structure`). With `verify_digest` the payload digest is
/// recomputed and checked (reads the whole file once). Fills `*header`
/// when non-null. Throws FormatError on any violation it checks.
Graph load_dsg(const std::string& path, DsgHeader* header = nullptr,
               bool verify_digest = false);

/// The O(n + m) check that a loaded image has every invariant the Graph
/// constructor establishes (graph/graph.hpp): offsets start at 0 and never
/// decrease, every edge has u < v < n, walking the edges with one cursor
/// per row meets each endpoint at the next slot of its row, and no row
/// lists a neighbor twice. Throws FormatError naming the first violation,
/// with `path` in the message. The tools run it on every `--graph` file.
void check_dsg_structure(const Graph& g, const std::string& path);

/// Reconstructs the bipartite instance a unified general graph encodes:
/// left nodes 0..nu-1, right nodes nu..n-1, edges in stored order (so edge
/// ids are stable across pack/load round trips). Throws FormatError if any
/// edge fails to cross the (left, right) divide.
BipartiteGraph bipartite_from_unified(const Graph& g, std::size_t nu);

}  // namespace ds::graph
