#pragma once

/// \file tcp_network.hpp
/// `net::TcpNetwork` — the one TCP executor: one OS process per rank
/// (typically on different machines), connected by a `net::TcpTransport`,
/// each running the shared `dist::run_rank_loop` protocol over its
/// degree-balanced partition range, constructing only that range's
/// programs. Every run goes through `dist::run_fleet`, like every thread
/// rank and every `net::run_insitu` rank.
///
/// **One-shot** (one `distsplit_rank` run): every rank constructs the same
/// `TcpNetwork` over the same (graph, IdStrategy, seed) with its own `rank`
/// and rendezvouses its own fleet — the handshake rejects launches where
/// the ranks disagree (net/rendezvous.hpp). The rank count is fixed by the
/// launch, so ranks beyond the node count simply own empty ranges.
///
/// **Standing** (serve/daemon.hpp): one executor per served request,
/// borrowing the daemon's once-rendezvoused transport, its monotone epoch
/// counter and a cached partition. Every rank constructs it for the same
/// dispatched request, so the exchange sequence stays aligned.
///
/// # Determinism contract
///
/// Identical to the other executors: for a fixed (graph, IdStrategy, seed),
/// per-node outputs, round counts and RoundStats are bit-identical to
/// `local::Network` at every rank count. The transport moves message words
/// verbatim in canonical link order and the round protocol is the shared
/// `run_rank_loop`, so nothing rank-count-dependent can leak into program
/// observations. tests/test_net_tcp.cpp asserts this on loopback fleets.
///
/// # Output collection
///
/// The `set_output_fn`/`outputs()` gather contract streams every rank's
/// rows to rank 0, which assembles the table and re-broadcasts it — so
/// `outputs()` returns the full, identical table on *every* rank (SPMD
/// style: algorithm code needs no rank special-casing). `program(v)` is
/// resident only for the own range.
///
/// After a run every rank, one-shot or standing, has merged the other
/// ranks' observability blocks into its recorder: each ends the run
/// holding fleet totals (dist/rank_loop.hpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/partition.hpp"
#include "graph/graph.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"

namespace ds::net {

/// Launch parameters of one rank's executor.
struct TcpNetworkConfig {
  std::size_t rank = 0;
  /// Rank-ordered endpoints of the whole fleet (hosts-file contents).
  std::vector<Endpoint> hosts;
  TcpOptions transport;
  /// Optional pre-bound listen socket for `hosts[rank]` (the loopback
  /// helper pre-binds ephemeral ports to keep tests collision-free).
  Socket listen;
};

/// Resolves the partition of a standing-fleet request's topology (the
/// daemon's partition cache); keeps `net` independent of `serve`.
using PartitionProvider = std::function<std::shared_ptr<const dist::Partition>(
    const local::NetworkTopology&)>;

/// Multi-host synchronous executor on a fixed communication graph.
class TcpNetwork final : public local::Executor {
 public:
  /// One-shot: builds the executor and connects the fleet (blocks until
  /// every rank's handshake went through or the rendezvous times out).
  TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
             std::uint64_t seed, TcpNetworkConfig config);

  /// Standing: builds this request's topology, resolves its partition
  /// through `partitions` and attaches it to the borrowed, already
  /// rendezvoused `transport`. `transport` and `epoch` — the monotone round
  /// tag shared by every run on that transport — must outlive the executor.
  TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
             std::uint64_t seed, TcpTransport& transport, std::uint64_t& epoch,
             const PartitionProvider& partitions);

  std::size_t run(const local::ProgramFactory& factory,
                  std::size_t max_rounds,
                  local::CostMeter* meter = nullptr) override;

  /// Only resident for nodes in this rank's range; use `outputs()` (valid
  /// on every rank) for executor-portable result extraction.
  [[nodiscard]] const local::NodeProgram& program(
      graph::NodeId v) const override;

  [[nodiscard]] const local::NetworkTopology& topology() const override {
    return topology_;
  }

  void set_stats_sink(local::RoundStatsSink sink) override {
    sink_ = std::move(sink);
  }

  [[nodiscard]] std::size_t rank() const { return transport_.rank(); }

  /// The node partition (ranges, halo routing tables, edge-cut stats).
  [[nodiscard]] const dist::Partition& partition() const {
    return *partition_;
  }

 private:
  local::NetworkTopology topology_;
  std::shared_ptr<const dist::Partition> partition_;
  /// The one-shot executor's own fleet connection; null when standing.
  std::unique_ptr<TcpTransport> own_transport_;
  TcpTransport& transport_;
  std::uint64_t own_epoch_ = 0;
  /// Monotone round tag; never reset across runs.
  std::uint64_t& epoch_;
  /// This rank's resident programs (its owned range, at local indices).
  std::vector<std::unique_ptr<local::NodeProgram>> programs_;
  local::RoundStatsSink sink_;
};

}  // namespace ds::net
