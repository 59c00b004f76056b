#include "net/insitu_runner.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "dist/rank_loop.hpp"
#include "local/program.hpp"
#include "net/rendezvous.hpp"
#include "obs/recorder.hpp"
#include "support/check.hpp"
#include "support/fnv.hpp"
#include "support/rng.hpp"

namespace ds::net {

namespace {

std::uint64_t pack_edge(const graph::Edge& e) {
  return (static_cast<std::uint64_t>(e.u) << 32) |
         static_cast<std::uint64_t>(e.v);
}

graph::Edge unpack_edge(std::uint64_t word) {
  return {static_cast<graph::NodeId>(word >> 32),
          static_cast<graph::NodeId>(word & 0xFFFFFFFFull)};
}

/// Owning rank of node v under the given boundaries.
std::size_t owner_of(const std::vector<graph::NodeId>& bounds,
                     graph::NodeId v) {
  const auto it = std::upper_bound(bounds.begin() + 1, bounds.end(), v);
  return static_cast<std::size_t>(it - (bounds.begin() + 1));
}

/// Generates this rank's shard and completes it to the rank-local CSR of
/// its full incident edge list. Row families must exchange cut edges (each
/// emitted edge is shipped to the owner of its non-owned endpoint, packed
/// as one word); self-discovering families already hold every incident
/// edge, and every rank skips the collective consistently because the
/// family is part of the handshaken instance digest.
graph::LocalCsr build_rank_csr(const graph::DistributedGenerator& dg,
                               const std::vector<graph::NodeId>& bounds,
                               TcpTransport& transport) {
  const std::size_t ranks = bounds.size() - 1;
  const graph::NodeId first = bounds[transport.rank()];
  const graph::NodeId last = bounds[transport.rank() + 1];
  std::vector<graph::Edge> incident = dg.shard(first, last);
  if (!dg.self_discovering() && ranks > 1) {
    std::vector<std::vector<std::uint64_t>> to_peer(ranks);
    for (const graph::Edge& e : incident) {
      if (e.u < first || e.u >= last) {
        to_peer[owner_of(bounds, e.u)].push_back(pack_edge(e));
      }
      if (e.v < first || e.v >= last) {
        to_peer[owner_of(bounds, e.v)].push_back(pack_edge(e));
      }
    }
    const auto from_peer = transport.exchange_setup(to_peer);
    to_peer.clear();
    to_peer.shrink_to_fit();
    // The own shard and every peer's block arrive sorted (a block is a
    // filtered shard) and pairwise disjoint: merge them in, no full sort.
    const auto edge_less = [](const graph::Edge& a, const graph::Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    };
    std::size_t total = incident.size();
    for (const auto& words : from_peer) total += words.size();
    incident.reserve(total);
    for (const auto& words : from_peer) {
      const auto mid = static_cast<std::ptrdiff_t>(incident.size());
      for (const std::uint64_t w : words) {
        incident.push_back(unpack_edge(w));
      }
      std::inplace_merge(incident.begin(), incident.begin() + mid,
                         incident.end(), edge_less);
    }
    incident.erase(std::unique(incident.begin(), incident.end()),
                   incident.end());
  }
  return graph::build_local_csr(incident, first, last);
}

/// The rounds, result collection and verification of one in-situ rank over
/// its CSR and partition — `run_fleet`'s body, so any exception escaping it
/// is turned into a collective abort.
InsituResult run_rank(const algo::Spec& spec, const algo::Params& params,
                      std::uint64_t seed, std::size_t n,
                      const std::vector<graph::NodeId>& bounds,
                      const graph::LocalCsr& csr, const dist::Partition& part,
                      TcpTransport& transport, obs::Recorder* recorder) {
  const algo::InsituHooks& hooks = *spec.insitu;
  const std::size_t ranks = bounds.size() - 1;
  const std::size_t rank = transport.rank();
  const graph::NodeId first = bounds[rank];
  const graph::NodeId last = bounds[rank + 1];

  // --- The unmodified round protocol over a rank-local view. Environments
  // mirror NetworkTopology::make_env for the sequential ID strategy: uid ==
  // node (so no UID table), neighbors == the CSR row, which outlives the
  // programs, rng == master.fork(uid).
  const local::ProgramFactory factory = hooks.make_factory(params, seed);
  const Rng master(seed);
  dist::RankView view;
  view.num_nodes = n;
  view.port_offsets = csr.offsets.data();
  view.offset_first = first;
  view.env_of = [&](graph::NodeId v) {
    const std::size_t off = csr.offsets[v - first];
    local::NodeEnv env;
    env.node = v;
    env.uid = v;
    env.n = n;
    env.degree = csr.offsets[v - first + 1] - off;
    env.neighbors = csr.adjacency.data() + off;
    env.rng = master.fork(env.uid);
    return env;
  };

  InsituResult result;
  const std::size_t local_n = last - first;
  std::vector<std::uint64_t> values;
  {
    const dist::RankRun run =
        dist::run_rank_loop(view, part, transport, factory,
                            hooks.max_rounds(params), {}, hooks.output,
                            recorder);
    result.rounds = run.rounds;
    // The gather carries only the observability block: gathering every
    // output row to rank 0 would make its footprint O(n) instead of
    // rank-local.
    dist::gather_outputs(transport, recorder, run.rounds, {});

    // --- Collection collective 1: the owned output words, one per node;
    // the rows die with this scope.
    values.resize(local_n);
    for (std::size_t i = 0; i < local_n; ++i) {
      DS_CHECK_MSG(2 * i + 1 < run.rows.size() && run.rows[2 * i] == 1,
                   "in-situ: the output hook of --algo=" + spec.name +
                       " must write exactly one word per node");
      values[i] = run.rows[2 * i + 1];
    }
  }

  // --- Collection collective 2: halo values. Peer d needs the words of
  // exactly the owned nodes adjacent to d's range; payloads are (node,
  // value) pairs in ascending node order, so concatenating the received
  // blocks in rank order keeps the lookup table sorted.
  std::vector<std::uint64_t> halo_nodes;
  std::vector<std::uint64_t> halo_values;
  if (ranks > 1) {
    std::vector<std::vector<std::uint64_t>> to_peer(ranks);
    for (graph::NodeId v = first; v < last; ++v) {
      const std::size_t off = csr.offsets[v - first];
      const std::size_t end = csr.offsets[v - first + 1];
      for (std::size_t p = off; p < end; ++p) {
        const graph::NodeId u = csr.adjacency[p];
        if (u >= first && u < last) continue;
        auto& dst = to_peer[owner_of(bounds, u)];
        if (dst.empty() || dst[dst.size() - 2] != v) {
          dst.push_back(v);
          dst.push_back(values[v - first]);
        }
      }
    }
    const auto from_peer = transport.exchange_setup(to_peer);
    for (const auto& words : from_peer) {
      DS_CHECK(words.size() % 2 == 0);
      for (std::size_t i = 0; i < words.size(); i += 2) {
        halo_nodes.push_back(words[i]);
        halo_values.push_back(words[i + 1]);
      }
    }
  }

  // --- Collection collective 3: digest fold at rank 0 + broadcast. The
  // byte stream (all n words in node order) matches Result::output_digest()
  // exactly; rank 0 folds block by block and never concatenates.
  std::uint64_t fleet_digest = 0;
  std::uint64_t fleet_sum = 0;
  {
    std::vector<std::vector<std::uint64_t>> to_peer(ranks);
    if (rank != 0) to_peer[0] = values;
    const auto blocks = transport.exchange_setup(to_peer);
    if (rank == 0) {
      Fnv1a fnv{kFnvShortBasis};
      fnv.words(values.data(), values.size());
      for (const std::uint64_t w : values) fleet_sum += w;
      for (std::size_t r = 1; r < ranks; ++r) {
        DS_CHECK_MSG(blocks[r].size() ==
                         static_cast<std::size_t>(bounds[r + 1] - bounds[r]),
                     "in-situ digest fold: rank " + std::to_string(r) +
                         " sent a wrong-sized value block");
        fnv.words(blocks[r].data(), blocks[r].size());
        for (const std::uint64_t w : blocks[r]) fleet_sum += w;
      }
      fleet_digest = fnv.h;
    }
  }
  {
    std::vector<std::vector<std::uint64_t>> to_peer(ranks);
    if (rank == 0) {
      for (std::size_t r = 1; r < ranks; ++r) {
        to_peer[r] = {fleet_digest, fleet_sum};
      }
    }
    const auto from_peer = transport.exchange_setup(to_peer);
    if (rank != 0) {
      DS_CHECK(from_peer[0].size() == 2);
      fleet_digest = from_peer[0][0];
      fleet_sum = from_peer[0][1];
    }
  }

  // --- Local verification over the owned range; neighbor words resolve
  // from the owned values or the halo table. A missing halo entry would
  // mean the cut-edge exchange and the halo exchange disagree — a hard bug,
  // not a data error.
  const std::function<std::uint64_t(graph::NodeId)> value_of =
      [&](graph::NodeId u) -> std::uint64_t {
    if (u >= first && u < last) return values[u - first];
    const auto it = std::lower_bound(halo_nodes.begin(), halo_nodes.end(),
                                     static_cast<std::uint64_t>(u));
    DS_CHECK_MSG(it != halo_nodes.end() && *it == u,
                 "in-situ verify: no halo value for remote node " +
                     std::to_string(u));
    return halo_values[static_cast<std::size_t>(it - halo_nodes.begin())];
  };
  for (graph::NodeId v = first; v < last; ++v) {
    const std::size_t off = csr.offsets[v - first];
    hooks.verify_node(v, values[v - first], csr.adjacency.data() + off,
                      csr.offsets[v - first + 1] - off, value_of);
  }

  result.output_digest = fleet_digest;
  result.output_sum = fleet_sum;
  result.summary = hooks.summarize(fleet_sum, result.rounds);
  result.verified = true;
  return result;
}

}  // namespace

std::string InsituResult::brief() const {
  std::ostringstream out;
  for (const auto& [key, value] : summary) {
    out << key << "=" << value << " ";
  }
  out << "verified=" << (verified ? "yes" : "no") << " ";
  out << "output-digest=" << std::hex << output_digest;
  return out.str();
}

std::vector<graph::NodeId> uniform_boundaries(std::size_t n,
                                              std::size_t ranks) {
  DS_CHECK(ranks >= 1);
  std::vector<graph::NodeId> bounds(ranks + 1);
  for (std::size_t s = 0; s <= ranks; ++s) {
    bounds[s] = static_cast<graph::NodeId>(
        static_cast<std::uint64_t>(n) * s / ranks);
  }
  return bounds;
}

InsituResult run_insitu(const algo::Spec& spec, const algo::Params& params,
                        std::uint64_t seed, const graph::GenSpec& gen,
                        InsituConfig config, obs::Recorder* recorder) {
  DS_CHECK_MSG(spec.insitu != nullptr,
               "--algo=" + spec.name +
                   " has no in-situ hooks; it needs the materialized "
                   "instance (use the classic --graph/--gen path)");
  DS_CHECK_MSG(spec.input == algo::InputKind::kGeneralGraph,
               "in-situ: --algo=" + spec.name +
                   " consumes a bipartite instance; the scale path runs "
                   "general-graph specs only");
  const std::size_t ranks = config.hosts.size();
  DS_CHECK_MSG(ranks >= 1, "in-situ: the hosts list must name >= 1 rank");
  DS_CHECK_MSG(config.rank < ranks, "in-situ: --rank must be < the fleet size");

  const graph::DistributedGenerator dg(gen, seed);
  const std::vector<graph::NodeId> bounds =
      uniform_boundaries(dg.num_nodes(), ranks);

  // The handshake digests pin everything the fleet must agree on before
  // anything is generated: the canonical generator spec, the algorithm, the
  // seed (topology side) and the range boundaries (partition side).
  InstanceDigests digests;
  digests.topology = instance_digest(gen.canonical() + "|algo=" + spec.name +
                                     "|seed=" + std::to_string(seed));
  digests.partition = partition_digest(ranks, bounds);
  TcpTransport transport(config.rank, config.hosts, digests, config.transport,
                         std::move(config.listen));

  // The partition is built from the exchanged setup data, so the setup
  // collectives precede the observability agreement.
  graph::LocalCsr csr;
  std::optional<dist::Partition> part;
  InsituResult result;
  dist::run_fleet(
      transport, recorder,
      [&] {
        csr = build_rank_csr(dg, bounds, transport);
        part = dist::Partition::rank_local(bounds, config.rank, csr);
        transport.attach_partition(*part);
      },
      [&](obs::Recorder* rec) {
        result = run_rank(spec, params, seed, dg.num_nodes(), bounds, csr,
                          *part, transport, rec);
        return result.rounds;
      });
  return result;
}

}  // namespace ds::net
