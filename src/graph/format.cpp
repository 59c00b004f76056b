#include "graph/format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>

#include "support/fnv.hpp"

namespace ds::graph {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'G', 'F'};
constexpr std::uint16_t kEndianTag = 0xFEFF;
constexpr std::size_t kHeaderBytes = 64;

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw FormatError("dsg format error (" + path + "): " + why);
}

/// The fixed header image. Written/read as raw bytes; the static_assert
/// pins the layout documented in format.hpp.
struct RawHeader {
  char magic[4];
  std::uint16_t version;
  std::uint16_t endian;
  std::uint64_t n;
  std::uint64_t m;
  std::uint64_t nu;
  std::uint64_t seed;
  std::uint64_t payload_digest;
  std::uint64_t reserved[2];
};
static_assert(sizeof(RawHeader) == kHeaderBytes,
              "header layout is part of the on-disk format");

std::uint64_t expected_file_bytes(std::uint64_t n, std::uint64_t m) {
  // header + offsets (n+1 × u64) + adjacency (2m × u32) + edges (m × 8B).
  return kHeaderBytes + 8 * (n + 1) + 8 * m + 8 * m;
}

}  // namespace

void write_dsg(const Graph& g, const std::string& path, std::uint64_t nu,
               std::uint64_t seed) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) fail(path, "cannot open for writing");

  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  RawHeader hdr{};
  std::memcpy(hdr.magic, kMagic, 4);
  hdr.version = kDsgVersion;
  hdr.endian = kEndianTag;
  hdr.n = n;
  hdr.m = m;
  hdr.nu = nu;
  hdr.seed = seed;
  // Digest is known only after the sections are streamed; rewritten below.
  out.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));

  Fnv1a digest{kFnvShortBasis};
  const auto emit = [&](const void* data, std::size_t bytes) {
    digest.bytes(data, bytes);
    out.write(static_cast<const char*>(data), bytes);
  };

  // CSR offsets (the graph's own table), then the flat rows, then the edge
  // list: packing never holds a second copy of the image.
  const std::span<const std::uint64_t> offsets = g.offsets();
  emit(offsets.data(), offsets.size_bytes());
  for (NodeId v = 0; v < n; ++v) {
    const NeighborView row = g.neighbors(v);
    emit(row.data(), row.size() * sizeof(NodeId));
  }
  const EdgeView edges = g.edges();
  emit(edges.data(), edges.size() * sizeof(Edge));

  hdr.payload_digest = digest.h;
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  out.flush();
  if (!out.good()) fail(path, "write failed");
}

Graph load_dsg(const std::string& path, DsgHeader* header,
               bool verify_digest) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    fail(path, "truncated: smaller than the 64-byte header");
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(file_bytes),
                      PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) fail(path, "mmap failed");
  const std::size_t map_bytes = static_cast<std::size_t>(file_bytes);
  std::shared_ptr<const void> keepalive(
      base, [map_bytes](const void* p) {
        ::munmap(const_cast<void*>(p), map_bytes);
      });

  RawHeader hdr{};
  std::memcpy(&hdr, base, sizeof(hdr));
  if (std::memcmp(hdr.magic, kMagic, 4) != 0) {
    fail(path, "bad magic — not a .dsg file");
  }
  if (hdr.endian != kEndianTag) {
    fail(path, "endianness mismatch — file written on a byte-swapped host");
  }
  if (hdr.version != kDsgVersion) {
    fail(path, "unsupported format version " + std::to_string(hdr.version) +
                   " (this build reads version " +
                   std::to_string(kDsgVersion) + ")");
  }
  if (hdr.n > static_cast<std::uint64_t>(NodeId(-1))) {
    fail(path, "node count exceeds the 32-bit NodeId space");
  }
  if (expected_file_bytes(hdr.n, hdr.m) != file_bytes) {
    fail(path, "size mismatch: header claims n=" + std::to_string(hdr.n) +
                   " m=" + std::to_string(hdr.m) + " (" +
                   std::to_string(expected_file_bytes(hdr.n, hdr.m)) +
                   " bytes) but the file has " + std::to_string(file_bytes));
  }

  const char* bytes = static_cast<const char*>(base);
  const auto* offsets =
      reinterpret_cast<const std::uint64_t*>(bytes + kHeaderBytes);
  const auto* adjacency = reinterpret_cast<const NodeId*>(
      bytes + kHeaderBytes + 8 * (hdr.n + 1));
  const auto* edge_list = reinterpret_cast<const Edge*>(
      bytes + kHeaderBytes + 8 * (hdr.n + 1) + 8 * hdr.m);
  if (offsets[hdr.n] != 2 * hdr.m) {
    fail(path, "corrupt CSR: offsets[n] != 2m");
  }
  if (verify_digest) {
    Fnv1a digest{kFnvShortBasis};
    digest.bytes(bytes + kHeaderBytes,
                static_cast<std::size_t>(file_bytes - kHeaderBytes));
    if (digest.h != hdr.payload_digest) {
      fail(path, "payload digest mismatch — file corrupt or tampered");
    }
  }
  if (header != nullptr) {
    header->version = hdr.version;
    header->n = hdr.n;
    header->m = hdr.m;
    header->nu = hdr.nu;
    header->seed = hdr.seed;
    header->payload_digest = hdr.payload_digest;
  }
  return Graph::mapped(std::move(keepalive), offsets, adjacency, edge_list,
                       static_cast<std::size_t>(hdr.n),
                       static_cast<std::size_t>(hdr.m));
}

void check_dsg_structure(const Graph& g, const std::string& path) {
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::size_t n = g.num_nodes();
  if (offsets[0] != 0) fail(path, "corrupt CSR: offsets[0] != 0");
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      fail(path, "corrupt CSR: offsets[" + std::to_string(v + 1) +
                     "] < offsets[" + std::to_string(v) + "]");
    }
  }
  // Walk the edges with one cursor per row: each endpoint must sit at the
  // next slot of its row. With offsets[n] == 2m every slot is then met
  // exactly once, so this also bounds every adjacency entry.
  std::vector<std::uint64_t> filled(n, 0);
  const EdgeView edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const auto edge_name = [&] {
      return "edge " + std::to_string(i) + " {" + std::to_string(e.u) + ", " +
             std::to_string(e.v) + "}";
    };
    if (!(e.u < e.v && e.v < n)) {
      fail(path, "corrupt edge list: " + edge_name() + " is not u < v < n");
    }
    for (const auto& [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
      if (filled[a] == g.degree(a) || g.neighbors(a)[filled[a]] != b) {
        fail(path, "corrupt CSR: " + edge_name() +
                       " is not at the next slot of row " + std::to_string(a));
      }
      ++filled[a];
    }
  }
  const std::size_t row = g.first_repeated_row();
  if (row != n) {
    fail(path, "corrupt CSR: row " + std::to_string(row) +
                   " lists a neighbor twice (a parallel edge)");
  }
}

BipartiteGraph bipartite_from_unified(const Graph& g, std::size_t nu) {
  if (nu > g.num_nodes()) {
    throw FormatError(
        "bipartite reconstruction: left side larger than the graph");
  }
  for (const Edge& e : g.edges()) {
    if (e.u >= nu || e.v < nu) {
      throw FormatError(
          "bipartite reconstruction: edge {" + std::to_string(e.u) + ", " +
          std::to_string(e.v) + "} does not cross the left/right divide");
    }
  }
  return BipartiteGraph(g, nu);
}

}  // namespace ds::graph
