#pragma once

/// \file insitu_runner.hpp
/// The billion-edge scale path: runs one registry algorithm on a generated
/// instance *without any rank ever materializing the whole topology*.
///
/// Where `net::TcpNetwork` consumes a full `graph::Graph` +
/// `NetworkTopology` (O(n + m) memory on every rank before the partition
/// even exists), `run_insitu` gives each rank only
///
///   * its node range `[bounds[rank], bounds[rank+1])` of a deterministic
///     `graph::DistributedGenerator` instance (node-uniform boundaries —
///     every rank derives them from (n, ranks) alone),
///   * the rank-local CSR of that range (own rows incl. remote neighbors),
///   * a `dist::Partition::rank_local` routing table over that CSR.
///
/// Setup-time cut edges are exchanged through `TcpTransport::exchange_setup`
/// (kSetup frames; skipped entirely for self-discovering generator families),
/// and the rendezvous handshake carries `instance_digest(gen + algo + seed)`
/// / `partition_digest(ranks, bounds)` so disagreeing launches die fast —
/// the same agreement guarantee the materialized path gets from its
/// launch digest.
///
/// The round protocol is the unmodified `dist::run_rank_loop` core, and
/// every node environment comes from `local::node_env` under sequential
/// IDs (a UID is the node id, so no rank holds a UID table), exactly as on
/// the executors — so the output is bit-identical to every other runtime
/// by construction. It is driven through `dist::run_fleet` like every
/// `net::TcpNetwork` run and thread rank (observability agreement,
/// collective abort, fleet obs merge); only the
/// setup and the result collection differ. Each rank serializes its rows
/// with `InsituHooks::output` in the rank loop, which destroys the programs
/// before it returns, exactly as on the executors. Gathering every output
/// row to rank 0 would reinstate the O(n) driver footprint, so the gather
/// carries *no* output rows (observability blocks only) and three small
/// kSetup collectives finish the run:
///
///   1. **halo values** — each rank ships the output word of its boundary
///      nodes to the neighboring ranks (pairs `(node, value)`),
///   2. **digest fold** — every rank streams its own range's words to rank
///      0, which folds the fleet digest/sum in rank order (identical byte
///      stream to `algo::Result::output_digest()`) and broadcasts both back,
///   3. **local verification** — each rank runs the spec's
///      `InsituHooks::verify_node` over its own range, resolving neighbor
///      values from its own words plus the halo exchange.
///
/// `InsituResult::brief()` and `algo::Result::brief()` both print
/// `algo::brief_line`, so CI can diff an in-situ run directly against a
/// materialized control run of the same (generator, seed, params).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/spec.hpp"
#include "graph/graph.hpp"
#include "graph/insitu.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"

namespace ds::obs {
class Recorder;
}  // namespace ds::obs

namespace ds::net {

/// Launch parameters of one in-situ rank: its place in the fleet and the
/// transport it connects.
struct InsituConfig {
  std::size_t rank = 0;
  std::vector<Endpoint> hosts;  ///< rank-ordered fleet endpoints
  TcpOptions transport;
  /// Pre-bound listening socket for hosts[rank] (loopback tests); when
  /// invalid the runner binds hosts[rank] itself.
  Socket listen;
};

/// What an in-situ run returns on every rank (identical on all ranks).
struct InsituResult {
  std::size_t rounds = 0;
  /// Fleet-wide FNV-1a digest over all n output words in node order —
  /// bit-identical to `algo::Result::output_digest()` of a materialized run
  /// on any runtime.
  std::uint64_t output_digest = 0;
  /// Fleet-wide sum of the output words (feeds `InsituHooks::summarize`).
  std::uint64_t output_sum = 0;
  std::vector<std::pair<std::string, std::string>> summary;
  bool verified = false;

  /// Same format as `algo::Result::brief()` — diffable one-liner.
  [[nodiscard]] std::string brief() const;
};

/// Node-uniform range boundaries: `bounds[s] = floor(n * s / ranks)`,
/// size ranks + 1. The in-situ path cannot degree-balance (no rank holds
/// the global degree sequence before generation), and every rank must
/// derive identical boundaries from (n, ranks) alone.
std::vector<graph::NodeId> uniform_boundaries(std::size_t n,
                                              std::size_t ranks);

/// Runs `spec` (which must carry `Spec::insitu` hooks) on the generated
/// instance `(gen, seed)` as rank `config.rank` of `config.hosts.size()`
/// ranks. Blocks until the fleet finishes; throws ds::CheckError (after a
/// best-effort collective abort) on any failure. `recorder`, when non-null,
/// receives the fleet-merged observability blocks, exactly like a
/// TcpNetwork run.
InsituResult run_insitu(const algo::Spec& spec, const algo::Params& params,
                        std::uint64_t seed, const graph::GenSpec& gen,
                        InsituConfig config,
                        obs::Recorder* recorder = nullptr);

}  // namespace ds::net
