// Tests for the binary mmap-able .dsg graph format (graph/format.hpp):
// pack/mmap round-trip fuzz (bit-identical CSR to the in-memory graph),
// header validation (magic, version, endianness, size, payload digest) with
// loud FormatError rejection, the bipartite split recovery, and the key
// scale-path property — a mapped topology shared read-only across thread
// ranks produces bit-identical outputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dist/distributed_network.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
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

TEST(GraphFormat, RoundTripFuzz) {
  Rng rng(17);
  const std::string path = temp_path("roundtrip.dsg");
  for (int i = 0; i < 6; ++i) {
    const std::size_t n = 1 + rng.next_index(300);
    const Graph g = graph::gen::gnp(n, 0.05, rng);
    write_dsg(g, path, /*nu=*/0, /*seed=*/42);
    DsgHeader header;
    const Graph m = load_dsg(path, &header, /*verify_digest=*/true);
    EXPECT_TRUE(m.is_mapped());
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
  Graph bad(4);
  bad.add_edge(0, 1);
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
  ASSERT_TRUE(mapped.is_mapped());

  const mis::MisOutcome seq = mis::luby(image, 5);
  dist::DistributedConfig config;
  config.workers = 4;
  mis::MisOutcome ranks = mis::luby(
      mapped, 5, nullptr, 10000, local::IdStrategy::kSequential,
      [&](const Graph& fg, local::IdStrategy strategy, std::uint64_t seed) {
        return std::make_unique<dist::DistributedNetwork>(fg, strategy, seed,
                                                          config);
      });
  EXPECT_EQ(seq.in_mis, ranks.in_mis);
  EXPECT_EQ(seq.executed_rounds, ranks.executed_rounds);
}

}  // namespace
}  // namespace ds::graph
