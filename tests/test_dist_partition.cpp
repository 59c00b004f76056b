// Tests for dist::Partition and the halo routing tables: fuzzing on
// gnp / Barabási–Albert / geometric instances asserting that every edge is
// either internal or appears exactly once in each endpoint's halo table,
// that each link's cut ports are one contiguous out-halo range in link
// order, degenerate shapes (n < workers, isolated nodes, a single hub
// star), PartitionStats, an in-process ship/patch roundtrip of the
// HaloTransport, `build_local_csr`'s input precondition — plus the in-situ
// scale path's two core determinism claims: for every generator family the
// union of all ranks' shards equals the sequential edge set at 1/2/4 ranks,
// and `Partition::rank_local` reproduces the full constructor's own-rank
// routing tables exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "dist/shm_transport.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "local/topology.hpp"
#include "net/insitu_runner.hpp"
#include "support/check.hpp"

namespace ds::dist {
namespace {

/// Asserts rank s's out-halo layout: its links' ranges tile the out-halo
/// region in peer order, and the i-th cut port toward d — in link order,
/// node then port — stages at out-halo slot `out_begin + i`. `row_of(v)`
/// returns owned node v's first index into `part.local_delivery(s)` and
/// its adjacency row.
template <typename RowOf>
void check_out_ranges(const Partition& part, std::size_t s,
                      const RowOf& row_of) {
  const std::size_t workers = part.num_workers();
  std::size_t next = 0;
  for (std::size_t d = 0; d < workers; ++d) {
    EXPECT_EQ(part.link(s, d).out_begin, next)
        << "link(" << s << "," << d << ")";
    next += part.link(s, d).out_count;
  }
  EXPECT_EQ(next, part.num_out_halo(s));
  EXPECT_EQ(part.link(s, s).out_count, 0u);

  const std::span<const std::uint32_t> table = part.local_delivery(s);
  std::vector<std::size_t> staged(workers, 0);
  for (graph::NodeId v = part.first_node(s); v < part.last_node(s); ++v) {
    const auto [index, row] = row_of(v);
    for (std::size_t p = 0; p < row.size(); ++p) {
      const std::size_t d = part.owner(row[p]);
      if (d == s) continue;
      const Partition::HaloLink& link = part.link(s, d);
      ASSERT_LT(staged[d], link.out_count)
          << "link(" << s << "," << d << ")";
      EXPECT_EQ(table[index + p],
                part.num_local_ports(s) + link.out_begin + staged[d]++)
          << "v=" << v << " p=" << p;
    }
  }
  for (std::size_t d = 0; d < workers; ++d) {
    EXPECT_EQ(staged[d], part.link(s, d).out_count);
  }
}

/// Asserts the full Partition invariant set on one (graph, workers) pair:
/// boundary cover, delivery-table consistency, contiguous out-halo ranges
/// per link, and — for every cut edge — exactly one entry in each
/// endpoint's halo link, with matching canonical positions on both sides.
void check_partition(const graph::Graph& g, std::size_t workers) {
  const local::NetworkTopology topo(g, local::IdStrategy::kSequential, 1);
  const Partition part(topo, workers);
  const std::vector<std::uint32_t> slots = local::delivery_slots(g);

  // Boundaries cover [0, n) without overlap.
  const auto& bounds = part.boundaries();
  ASSERT_EQ(bounds.size(), workers + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), g.num_nodes());
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_LE(part.first_node(w), part.last_node(w));
    for (graph::NodeId v = part.first_node(w); v < part.last_node(w); ++v) {
      EXPECT_EQ(part.owner(v), w);
    }
  }

  // Walk every directed port of every worker and classify it through the
  // local delivery table; collect the cut ports each ordered pair routes.
  std::size_t internal_ports = 0;
  // (src worker, dst worker) -> set of global source ports routed out-halo.
  std::map<std::pair<std::size_t, std::size_t>, std::set<std::size_t>> cut;
  for (std::size_t w = 0; w < workers; ++w) {
    const auto& table = part.local_delivery(w);
    ASSERT_EQ(table.size(), part.num_local_ports(w));
    std::set<std::size_t> seen_out_slots;
    for (graph::NodeId v = part.first_node(w); v < part.last_node(w); ++v) {
      for (std::size_t p = 0; p < g.degree(v); ++p) {
        const std::size_t entry =
            table[topo.port_offset(v) + p - part.port_base(w)];
        const std::size_t d = part.owner(g.neighbors(v)[p]);
        if (d == w) {
          ++internal_ports;
          EXPECT_LT(entry, part.num_local_ports(w));
          EXPECT_EQ(entry + part.port_base(w),
                    slots[topo.port_offset(v) + p]);
        } else {
          EXPECT_GE(entry, part.num_local_ports(w));
          // Out-halo slots are assigned injectively.
          EXPECT_TRUE(
              seen_out_slots.insert(entry - part.num_local_ports(w)).second);
          cut[{w, d}].insert(topo.port_offset(v) + p);
        }
      }
    }
    EXPECT_EQ(seen_out_slots.size(), part.num_out_halo(w));
    check_out_ranges(part, w, [&](graph::NodeId v) {
      return std::pair{topo.port_offset(v) - part.port_base(w),
                       g.neighbors(v)};
    });
  }

  // Every edge is either internal (both directed ports internal) or appears
  // exactly once in each endpoint's halo table.
  std::size_t expected_cut_ports = 0;
  for (const graph::Edge& e : g.edges()) {
    const std::size_t wu = part.owner(e.u);
    const std::size_t wv = part.owner(e.v);
    if (wu == wv) continue;
    expected_cut_ports += 2;
    // u's port toward v routed u->v, and vice versa, each exactly once.
    std::size_t port_u = 0;
    while (g.neighbors(e.u)[port_u] != e.v) ++port_u;
    std::size_t port_v = 0;
    while (g.neighbors(e.v)[port_v] != e.u) ++port_v;
    EXPECT_EQ((cut[{wu, wv}].count(topo.port_offset(e.u) + port_u)), 1u);
    EXPECT_EQ((cut[{wv, wu}].count(topo.port_offset(e.v) + port_v)), 1u);
  }
  EXPECT_EQ(internal_ports + expected_cut_ports, topo.total_ports());

  // The links agree with the per-pair cut sets in size, both sides of each
  // link pair up (same canonical length), and the i-th cut port in link
  // order (ascending global port) lands at dst_slots[i].
  std::size_t linked = 0;
  for (std::size_t s = 0; s < workers; ++s) {
    for (std::size_t d = 0; d < workers; ++d) {
      const auto& link = part.link(s, d);
      ASSERT_EQ(link.out_count, link.dst_slots.size());
      const auto it = cut.find({s, d});
      EXPECT_EQ(link.out_count, it == cut.end() ? 0u : it->second.size());
      linked += link.out_count;
      for (const std::uint32_t slot : link.dst_slots) {
        EXPECT_LT(slot, part.num_local_ports(d));
      }
      if (it == cut.end()) continue;
      std::size_t i = 0;
      for (const std::size_t port : it->second) {
        EXPECT_EQ(link.dst_slots[i++] + part.port_base(d), slots[port]);
      }
    }
  }
  EXPECT_EQ(linked, expected_cut_ports);

  // Stats agree with the edge classification.
  const PartitionStats& stats = part.stats();
  EXPECT_EQ(stats.parts, workers);
  EXPECT_EQ(stats.cut_edges, expected_cut_ports / 2);
  EXPECT_EQ(stats.cut_edges + stats.internal_edges, g.num_edges());
  if (g.num_nodes() > 0) {
    EXPECT_GE(stats.balance_factor, 1.0);
  }
}

TEST(Partition, FuzzGnp) {
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const std::size_t n = 20 + rng.next_index(180);
    const auto g = graph::gen::gnp(n, 0.05, rng);
    for (std::size_t workers : {1, 2, 3, 4, 7}) {
      check_partition(g, workers);
    }
  }
}

TEST(Partition, FuzzBarabasiAlbert) {
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    const auto g = graph::gen::barabasi_albert(100 + 150 * i, 3, rng);
    for (std::size_t workers : {2, 4, 5}) {
      check_partition(g, workers);
    }
  }
}

TEST(Partition, FuzzGeometric) {
  Rng rng(9);
  for (int i = 0; i < 6; ++i) {
    const auto g = graph::gen::random_geometric_2d(150, 0.12, rng);
    for (std::size_t workers : {2, 3, 4}) {
      check_partition(g, workers);
    }
  }
}

TEST(Partition, DegenerateShapes) {
  // Fewer nodes than workers: empty ranges must be well-formed.
  check_partition(graph::gen::cycle(3), 8);
  // Isolated nodes: no ports at all, node-balanced fallback.
  check_partition(graph::Graph(7), 3);
  // Single hub star: every edge is incident to the hub — the extreme
  // cut/balance case for a contiguous split.
  std::vector<graph::Edge> spokes;
  for (graph::NodeId v = 1; v < 33; ++v) spokes.push_back({0, v});
  const graph::Graph star(33, std::move(spokes));
  check_partition(star, 4);
  // Single node, and the empty graph.
  check_partition(graph::Graph(1), 2);
  check_partition(graph::Graph(0), 2);
}

// ---- In-process transport roundtrip --------------------------------------

TEST(HaloTransport, ShipPatchRoundtrip) {
  // Simulate two rounds of two ranks in-process: every node writes a
  // distinct message on its ports through the unmodified Outbox against
  // its rank's local arena; after ship + patch, every local slot must hold
  // exactly the words the global (sequential-executor) delivery rule
  // assigns to it, read in place from the peer's halo buffer. The second
  // round sends on even ports only: a port whose neighbor sent nothing
  // must read empty, not the first round's message.
  Rng rng(21);
  const auto g = graph::gen::gnp(60, 0.1, rng);
  const local::NetworkTopology topo(g, local::IdStrategy::kSequential, 2);
  const Partition part(topo, 2);
  const std::vector<std::uint32_t> slots = local::delivery_slots(g);
  HaloTransport transport(part);

  std::vector<local::WordBank> banks(2);
  std::vector<std::vector<local::MessageSpan>> arenas(2);
  for (std::size_t w = 0; w < 2; ++w) {
    arenas[w].resize(part.num_local_ports(w) + part.num_out_halo(w));
  }
  const auto word = [](std::uint64_t epoch, graph::NodeId v, std::size_t p) {
    return epoch * 1'000'000 + v * 1000ull + p;
  };
  for (const std::uint64_t epoch : {7u, 8u}) {
    const auto sends = [&](std::size_t port) {
      return epoch == 7 || port % 2 == 0;
    };
    for (std::size_t w = 0; w < 2; ++w) {
      banks[w].clear();
      for (graph::NodeId v = part.first_node(w); v < part.last_node(w);
           ++v) {
        local::Outbox out(&banks[w], 0, arenas[w].data(),
                          part.local_delivery(w).data() +
                              (topo.port_offset(v) - part.port_base(w)),
                          g.degree(v), epoch);
        for (std::size_t p = 0; p < g.degree(v); ++p) {
          if (sends(p)) out.write(p, {word(epoch, v, p), ~word(epoch, v, p)});
        }
      }
    }
    for (std::size_t w = 0; w < 2; ++w) {
      transport.ship(w, arenas[w].data(), banks[w].data(), epoch);
    }
    for (std::size_t w = 0; w < 2; ++w) {
      std::vector<const std::uint64_t*> bases = {banks[w].data(), nullptr,
                                                 nullptr};
      bases[2 - w] = banks[w].data();  // patch must overwrite the peer's
      transport.patch(w, arenas[w].data(), epoch, bases);
      EXPECT_EQ(bases[0], banks[w].data());
      EXPECT_EQ(bases[1 + w], nullptr);  // a rank ships nothing to itself
      EXPECT_NE(bases[2 - w], banks[w].data());
      for (graph::NodeId v = part.first_node(w); v < part.last_node(w);
           ++v) {
        local::Inbox inbox(
            arenas[w].data() + (topo.port_offset(v) - part.port_base(w)),
            g.degree(v), bases.data(), epoch);
        for (std::size_t p = 0; p < g.degree(v); ++p) {
          // The message on port p came from the neighbor's reverse port:
          // the slot v's port p delivers into, relative to the neighbor.
          const graph::NodeId u = g.neighbors(v)[p];
          const std::size_t q =
              slots[topo.port_offset(v) + p] - topo.port_offset(u);
          if (!sends(q)) {
            EXPECT_TRUE(inbox[p].empty()) << "v=" << v << " p=" << p;
            continue;
          }
          const std::uint64_t expected = word(epoch, u, q);
          ASSERT_EQ(inbox[p].size(), 2u) << "v=" << v << " p=" << p;
          EXPECT_EQ(inbox[p][0], expected);
          EXPECT_EQ(inbox[p][1], ~expected);
        }
      }
    }
  }
}

// ---- In-situ generation determinism --------------------------------------

/// One representative small instance per generator family.
const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs = {
      "torus:w=13,h=9",        "gnp:n=150,deg=6",  "gnm:n=150,deg=6",
      "ba:n=150,d=3",          "rgg:n=150,deg=7",  "biregular:nu=60,nv=30,delta=4",
      "kronecker:scale=7,deg=5",
  };
  return specs;
}

bool edge_lex_less(const graph::Edge& a, const graph::Edge& b) {
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

TEST(InsituGenerator, ShardUnionMatchesSequentialEdgeSet) {
  // For every family: the union of all ranks' shards at 1, 2 and 4 ranks
  // equals the sequential generator's edge set for the same seed — the
  // property that makes in-situ runs bit-identical to materialized ones.
  // Row families additionally produce *disjoint* shards.
  for (const std::string& text : family_specs()) {
    const graph::DistributedGenerator dg(graph::GenSpec::parse(text), 13);
    const graph::Graph g = dg.generate_full();
    std::vector<graph::Edge> expected(g.edges().begin(), g.edges().end());
    for (const std::size_t ranks : {1, 2, 4}) {
      const auto bounds = net::uniform_boundaries(dg.num_nodes(), ranks);
      std::vector<graph::Edge> all;
      std::size_t shard_sum = 0;
      for (std::size_t r = 0; r < ranks; ++r) {
        const auto shard = dg.shard(bounds[r], bounds[r + 1]);
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end(),
                                   edge_lex_less))
            << text << " rank " << r;
        shard_sum += shard.size();
        all.insert(all.end(), shard.begin(), shard.end());
      }
      std::sort(all.begin(), all.end(), edge_lex_less);
      all.erase(std::unique(all.begin(), all.end(),
                            [](const graph::Edge& a, const graph::Edge& b) {
                              return a.u == b.u && a.v == b.v;
                            }),
                all.end());
      ASSERT_EQ(all.size(), expected.size()) << text << " ranks=" << ranks;
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].u, expected[i].u) << text << " ranks=" << ranks;
        ASSERT_EQ(all[i].v, expected[i].v) << text << " ranks=" << ranks;
      }
      if (!dg.self_discovering()) {
        EXPECT_EQ(shard_sum, expected.size())
            << text << " ranks=" << ranks << ": row-family shards overlap";
      }
    }
  }
}

TEST(InsituGenerator, GenSpecParsing) {
  const graph::GenSpec spec = graph::GenSpec::parse("torus:h=9,w=13");
  EXPECT_EQ(spec.family, "torus");
  EXPECT_EQ(spec.required("w"), 13u);
  EXPECT_EQ(spec.param("missing", 7), 7u);
  // Canonical form sorts keys — stable across parses and usable as a
  // digest/cache key.
  EXPECT_EQ(spec.canonical(), "torus:h=9,w=13");
  EXPECT_EQ(graph::GenSpec::parse("torus:w=13,h=9").canonical(),
            spec.canonical());
  EXPECT_THROW(graph::GenSpec::parse("torus:w=x"), ds::CheckError);
  EXPECT_THROW(graph::DistributedGenerator(
                   graph::GenSpec::parse("nosuch:n=4"), 1),
               ds::CheckError);
  EXPECT_THROW(graph::DistributedGenerator(
                   graph::GenSpec::parse("torus:w=1,h=5"), 1),
               ds::CheckError);
}

TEST(InsituGenerator, UniformBoundariesCoverEveryNode) {
  for (const std::size_t n : {0u, 1u, 5u, 1000u}) {
    for (const std::size_t ranks : {1u, 2u, 3u, 7u}) {
      const auto bounds = net::uniform_boundaries(n, ranks);
      ASSERT_EQ(bounds.size(), ranks + 1);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), n);
      EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    }
  }
}

// ---- Rank-local partition construction -----------------------------------

TEST(Partition, RankLocalMatchesFullConstruction) {
  // Built from nothing but the boundaries and the rank's own CSR,
  // rank_local must reproduce the full constructor's own-rank tables
  // bit-for-bit: the local delivery table, the out-halo ranges (begin and
  // count of every outgoing link), and the dst column of every incoming
  // link. The gnp instance's ranges need two radix digits in the
  // dst-column sort.
  std::vector<std::string> specs = family_specs();
  specs.push_back("gnp:n=20000,deg=8");
  for (const std::string& text : specs) {
    const graph::DistributedGenerator dg(graph::GenSpec::parse(text), 29);
    const graph::Graph g = dg.generate_full();
    const local::NetworkTopology topo(g, local::IdStrategy::kSequential, 1);
    for (const std::size_t workers : {1, 2, 4}) {
      const Partition full(topo, workers);
      const auto& bounds = full.boundaries();
      for (std::size_t r = 0; r < workers; ++r) {
        // The complete incident edge list of the range — what the in-situ
        // runner assembles from its shard plus the cut-edge exchange.
        std::vector<graph::Edge> incident;
        for (const graph::Edge& e : g.edges()) {
          const bool u_in = e.u >= bounds[r] && e.u < bounds[r + 1];
          const bool v_in = e.v >= bounds[r] && e.v < bounds[r + 1];
          if (u_in || v_in) incident.push_back(e);
        }
        const graph::LocalCsr csr =
            graph::build_local_csr(incident, bounds[r], bounds[r + 1]);
        const Partition local = Partition::rank_local(bounds, r, csr);

        ASSERT_EQ(local.num_workers(), workers);
        EXPECT_EQ(local.boundaries(), bounds);
        EXPECT_EQ(local.port_base(r), 0u) << text;
        ASSERT_EQ(local.num_local_ports(r), full.num_local_ports(r))
            << text << " workers=" << workers << " rank=" << r;
        EXPECT_EQ(local.num_out_halo(r), full.num_out_halo(r));
        const auto as_vector = [](std::span<const std::uint32_t> table) {
          return std::vector<std::uint32_t>(table.begin(), table.end());
        };
        EXPECT_EQ(as_vector(local.local_delivery(r)),
                  as_vector(full.local_delivery(r)))
            << text << " workers=" << workers << " rank=" << r;
        for (std::size_t d = 0; d < workers; ++d) {
          EXPECT_EQ(local.link(r, d).out_begin, full.link(r, d).out_begin)
              << text << " link(" << r << "," << d << ")";
          EXPECT_EQ(local.link(r, d).out_count, full.link(r, d).out_count)
              << text << " link(" << r << "," << d << ")";
          EXPECT_EQ(local.link(d, r).dst_slots, full.link(d, r).dst_slots)
              << text << " link(" << d << "," << r << ")";
        }
        check_out_ranges(local, r, [&](graph::NodeId v) {
          const std::size_t off = csr.offsets[v - csr.first];
          return std::pair{off, graph::NeighborView(
                                    csr.adjacency.data() + off,
                                    csr.offsets[v - csr.first + 1] - off)};
        });
      }
    }
  }
}

TEST(LocalCsr, RowsAscendWithoutASortAndAnUnsortedListThrows) {
  // A strictly increasing incident list with u < v fills every row in
  // ascending order (a node's smaller neighbors come first, then its larger
  // ones); a list that breaks that precondition is refused rather than
  // turned into unsorted rows.
  const std::vector<graph::Edge> sorted = {
      {0, 2}, {0, 5}, {1, 2}, {2, 3}, {2, 7}};
  const graph::LocalCsr csr = graph::build_local_csr(sorted, 2, 4);
  EXPECT_EQ(csr.offsets, (std::vector<std::size_t>{0, 4, 5}));
  EXPECT_EQ(csr.adjacency, (std::vector<graph::NodeId>{0, 1, 3, 7, 2}));

  const std::vector<std::vector<graph::Edge>> broken = {
      {{2, 7}, {0, 2}, {2, 3}},  // unsorted
      {{0, 2}, {0, 2}},          // duplicate
      {{3, 2}},                  // u > v
  };
  for (const auto& incident : broken) {
    EXPECT_THROW((void)graph::build_local_csr(incident, 2, 4), ds::CheckError)
        << incident.size() << " edges";
  }
}

}  // namespace
}  // namespace ds::dist
