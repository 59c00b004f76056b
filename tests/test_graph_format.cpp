// Tests for the binary mmap-able .dsg graph format (graph/format.hpp):
// pack/mmap round-trip fuzz (bit-identical CSR to the in-memory graph),
// header validation (magic, version, endianness, size, payload digest) and
// the interior's structural check with loud FormatError rejection, the
// text and generator paths packing to identical bytes, the bipartite split
// recovery, and the key scale-path property — a mapped topology shared
// read-only across thread ranks produces bit-identical outputs.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dist/distributed_network.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "graph/io.hpp"
#include "local/network.hpp"
#include "mis/mis.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::graph {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Asserts the mapped graph is CSR-bit-identical to the owned one.
void expect_same_graph(const Graph& owned, const Graph& mapped) {
  ASSERT_EQ(owned.num_nodes(), mapped.num_nodes());
  ASSERT_EQ(owned.num_edges(), mapped.num_edges());
  for (NodeId v = 0; v < owned.num_nodes(); ++v) {
    ASSERT_EQ(owned.degree(v), mapped.degree(v)) << "v=" << v;
    const auto a = owned.neighbors(v);
    const auto b = mapped.neighbors(v);
    for (std::size_t p = 0; p < owned.degree(v); ++p) {
      ASSERT_EQ(a[p], b[p]) << "v=" << v << " p=" << p;
    }
  }
  const auto ea = owned.edges();
  const auto eb = mapped.edges();
  for (std::size_t i = 0; i < owned.num_edges(); ++i) {
    ASSERT_EQ(ea[i].u, eb[i].u) << "edge " << i;
    ASSERT_EQ(ea[i].v, eb[i].v) << "edge " << i;
  }
}

/// Asserts `m` views one file image — its three sections lie at their file
/// distances from each other — and that a copy shares it. Requires n >= 1.
void expect_views_file_image(const Graph& m) {
  const auto* offsets = reinterpret_cast<const char*>(m.offsets().data());
  const auto* rows = reinterpret_cast<const char*>(m.neighbors(0).data());
  const auto* edges = reinterpret_cast<const char*>(m.edges().data());
  EXPECT_EQ(rows - offsets,
            static_cast<std::ptrdiff_t>(8 * (m.num_nodes() + 1)));
  EXPECT_EQ(edges - rows, static_cast<std::ptrdiff_t>(8 * m.num_edges()));
  const Graph copy = m;
  EXPECT_EQ(copy.offsets().data(), m.offsets().data());
  EXPECT_EQ(copy.neighbors(0).data(), m.neighbors(0).data());
  EXPECT_EQ(copy.edges().data(), m.edges().data());
}

/// The whole file at `path`.
std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(GraphFormat, RoundTripFuzz) {
  Rng rng(17);
  const std::string path = temp_path("roundtrip.dsg");
  for (int i = 0; i < 6; ++i) {
    const std::size_t n = 1 + rng.next_index(300);
    const Graph g = graph::gen::gnp(n, 0.05, rng);
    write_dsg(g, path, /*nu=*/0, /*seed=*/42);
    DsgHeader header;
    const Graph m = load_dsg(path, &header, /*verify_digest=*/true);
    expect_views_file_image(m);
    EXPECT_EQ(header.version, kDsgVersion);
    EXPECT_EQ(header.n, g.num_nodes());
    EXPECT_EQ(header.m, g.num_edges());
    EXPECT_EQ(header.seed, 42u);
    expect_same_graph(g, m);
  }
  // The canonical generator output (sorted rows) round-trips too.
  const DistributedGenerator dg(GenSpec::parse("ba:n=200,d=3"), 9);
  const Graph g = dg.generate_full();
  write_dsg(g, path, 0, dg.seed());
  expect_same_graph(g, load_dsg(path, nullptr, true));
}

TEST(GraphFormat, EmptyAndEdgelessGraphs) {
  const std::string path = temp_path("empty.dsg");
  for (const std::size_t n : {std::size_t{0}, std::size_t{5}}) {
    const Graph g(n);
    write_dsg(g, path);
    const Graph m = load_dsg(path, nullptr, true);
    EXPECT_EQ(m.num_nodes(), n);
    EXPECT_EQ(m.num_edges(), 0u);
  }
}

/// Writes a tweaked copy of `path` with byte `offset` xor'd by `mask`.
std::string corrupt(const std::string& path, std::size_t offset,
                    char mask) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  bytes.at(offset) ^= mask;
  const std::string out_path = temp_path("corrupt.dsg");
  std::ofstream out(out_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out_path;
}

TEST(GraphFormat, RejectsCorruptHeaders) {
  const std::string path = temp_path("victim.dsg");
  Rng rng(3);
  write_dsg(graph::gen::gnp(50, 0.1, rng), path);

  // Bad magic (byte 0), bad version (byte 4), bad endian tag (byte 6):
  // every one must die loudly in load_dsg regardless of digest checking.
  EXPECT_THROW(load_dsg(corrupt(path, 0, 0x01)), FormatError);
  EXPECT_THROW(load_dsg(corrupt(path, 4, 0x40)), FormatError);
  EXPECT_THROW(load_dsg(corrupt(path, 6, 0x01)), FormatError);
  // Node/edge counts inflated past the actual file size.
  EXPECT_THROW(load_dsg(corrupt(path, 8, 0x10)), FormatError);

  // A payload flip passes the O(1) structural checks only when digest
  // verification is off; verify_digest=true must catch it. Flip a high
  // byte of one adjacency word far from the offsets table.
  std::ifstream in(path, std::ios::binary);
  in.seekg(0, std::ios::end);
  const std::size_t size = static_cast<std::size_t>(in.tellg());
  const std::string flipped = corrupt(path, size - 1, 0x04);
  EXPECT_THROW(load_dsg(flipped, nullptr, /*verify_digest=*/true),
               FormatError);

  // Truncation and trailing garbage: the expected size is exact.
  {
    std::ifstream full(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(full)),
                            std::istreambuf_iterator<char>());
    const std::string trunc = temp_path("trunc.dsg");
    std::ofstream out(trunc, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
    out.close();
    EXPECT_THROW(load_dsg(trunc), FormatError);
    const std::string bloat = temp_path("bloat.dsg");
    std::ofstream out2(bloat, std::ios::binary);
    out2.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out2.put(0);
    out2.close();
    EXPECT_THROW(load_dsg(bloat), FormatError);
  }

  // Missing file.
  EXPECT_THROW(load_dsg(temp_path("does-not-exist.dsg")), FormatError);
  // The pristine file still loads — the corrupt copies never touched it.
  EXPECT_NO_THROW(load_dsg(path, nullptr, true));
}

/// Writes a copy of `path` whose `T` at byte `offset` is `value`; `path`
/// may be a previous result, which is read whole before the write.
template <typename T>
std::string overwrite(const std::string& path, std::size_t offset, T value) {
  std::vector<char> bytes = read_bytes(path);
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  const std::string out_path = temp_path("overwritten.dsg");
  std::ofstream out(out_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out_path;
}

TEST(GraphFormat, StructuralCheckRejectsCorruptInteriors) {
  // The 8x8 torus: n = 64, m = 128. Offsets start at byte 64, the
  // adjacency at 64 + 8 * 65 = 584 and the edge list at 584 + 8m = 1608.
  // Each corruption keeps the header, the size and offsets[n] == 2m, so
  // load_dsg accepts it; the structural check must not.
  const DistributedGenerator dg(GenSpec::parse("torus:w=8,h=8"), 7);
  const std::string path = temp_path("interior.dsg");
  write_dsg(dg.generate_full(), path, 0, dg.seed());
  const auto check = [](const std::string& file) {
    check_dsg_structure(load_dsg(file), file);
  };
  EXPECT_NO_THROW(check(path));
  EXPECT_THROW(check(overwrite<std::uint32_t>(path, 1608, 0x7FFFFFF0)),
               FormatError);  // first edge's u far past n
  EXPECT_THROW(check(overwrite<std::uint64_t>(path, 64 + 8 * 3,
                                              1000000000000ULL)),
               FormatError);  // offsets[3] past the adjacency section
  EXPECT_THROW(check(overwrite<std::uint32_t>(path, 584, 0x7FFFFFF0)),
               FormatError);  // first adjacency entry far past n

  // A parallel edge, consistent everywhere else: Graph(3, {0,1}, {0,2})
  // with offsets[2] = 4, row 0 = [1, 1] and edge 1 = {0, 1}. Offsets at
  // byte 64, adjacency at 96, edges at 112.
  const std::string twin = temp_path("twin.dsg");
  write_dsg(Graph(3, {{0, 1}, {0, 2}}), twin);
  const std::string doubled = overwrite<std::uint32_t>(
      overwrite<std::uint32_t>(overwrite<std::uint64_t>(twin, 64 + 16, 4),
                               96 + 4, 1),
      112 + 12, 1);
  try {
    check(doubled);
    ADD_FAILURE() << "a parallel edge passed the structural check";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("lists a neighbor twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphFormat, TextAndGeneratorPathsPackIdentically) {
  // Every family: the text edge list of a generator image reads back as
  // the same image, row by row, and both pack to the same bytes.
  const std::map<std::string, std::string> small = {
      {"torus", "torus:w=7,h=5"},
      {"gnp", "gnp:n=120,deg=6"},
      {"gnm", "gnm:n=120,deg=6"},
      {"ba", "ba:n=120,d=3"},
      {"rgg", "rgg:n=120,deg=7"},
      {"biregular", "biregular:nu=40,nv=25,delta=4"},
      {"kronecker", "kronecker:scale=7,deg=5"},
  };
  for (const std::string& family : DistributedGenerator::families()) {
    ASSERT_TRUE(small.count(family)) << "no small instance for " << family;
    const DistributedGenerator dg(GenSpec::parse(small.at(family)), 21);
    const Graph image = dg.generate_full();
    std::stringstream text;
    io::write_edge_list(text, image);
    const Graph read = io::read_edge_list(text);
    expect_same_graph(image, read);
    const std::string from_image = temp_path("from_image.dsg");
    const std::string from_text = temp_path("from_text.dsg");
    write_dsg(image, from_image, dg.num_left(), dg.seed());
    write_dsg(read, from_text, dg.num_left(), dg.seed());
    EXPECT_EQ(read_bytes(from_image), read_bytes(from_text)) << family;
  }
}

TEST(GraphFormat, BipartiteSplitRecovery) {
  Rng rng(23);
  const auto b = graph::gen::random_biregular(40, 20, 4, rng);
  const std::string path = temp_path("bipartite.dsg");
  write_dsg(b.unified(), path, b.num_left());
  DsgHeader header;
  const Graph m = load_dsg(path, &header, true);
  ASSERT_EQ(header.nu, b.num_left());
  const BipartiteGraph back =
      bipartite_from_unified(m, static_cast<std::size_t>(header.nu));
  EXPECT_EQ(back.num_left(), b.num_left());
  EXPECT_EQ(back.num_right(), b.num_right());
  EXPECT_EQ(back.num_edges(), b.num_edges());
  // An edge that does not cross the claimed divide must be rejected.
  const Graph bad(4, {{0, 1}});
  EXPECT_THROW(bipartite_from_unified(bad, 2), FormatError);
}

TEST(GraphFormat, MappedTopologySharedByThreadRanks) {
  // The scale-path property: a mapped .dsg consumed by the multi-rank
  // executor (its thread ranks share the read-only pages) produces outputs
  // bit-identical to the sequential executor on the in-memory generator
  // image that wrote it.
  const DistributedGenerator dg(GenSpec::parse("torus:w=16,h=16"), 5);
  const Graph image = dg.generate_full();
  const std::string path = temp_path("ranks.dsg");
  write_dsg(image, path, 0, dg.seed());
  const Graph mapped = load_dsg(path, nullptr, true);
  expect_views_file_image(mapped);

  const mis::MisOutcome seq = mis::luby(image, 5);
  dist::DistributedConfig config;
  config.workers = 4;
  mis::MisOutcome ranks = mis::luby(
      mapped, 5, nullptr, 10000, local::IdStrategy::kSequential,
      [&](const Graph& fg) {
        return std::make_shared<dist::DistributedNetwork>(fg, config);
      });
  EXPECT_EQ(seq.in_mis, ranks.in_mis);
  EXPECT_EQ(seq.executed_rounds, ranks.executed_rounds);
}

}  // namespace
}  // namespace ds::graph
