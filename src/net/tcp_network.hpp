#pragma once

/// \file tcp_network.hpp
/// `net::TcpNetwork` — the one TCP executor: one OS process per rank
/// (typically on different machines), connected by a `net::TcpTransport`,
/// each running the shared `dist::run_rank_loop` protocol over its
/// degree-balanced partition range, constructing only that range's
/// programs. Every run goes through `dist::run_fleet`, like every thread
/// rank and every `net::run_insitu` rank.
///
/// The executor borrows a transport that already rendezvoused: a process
/// connects its fleet once (`distsplit_rank` per launch, `serve::Daemon`
/// per daemon) and builds one executor per communication graph over it.
/// Each executor builds its topology and partition once, and each run
/// attaches that partition to the transport, so executors over different
/// graphs can alternate on one transport. Every rank builds the same
/// executors and runs them in the same order with the same (ids, seed),
/// which keeps the exchange sequence aligned. The rank count is the
/// transport's, so ranks beyond the node count simply own empty ranges.
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
/// The output gather streams every rank's rows to rank 0, which
/// re-broadcasts them — so `run()` returns the full, identical table on
/// *every* rank (SPMD style: algorithm code needs no rank
/// special-casing). Each rank destroys its programs before the gather;
/// none outlives the run.
///
/// After a run every rank has merged the other ranks' observability blocks
/// into its recorder: each ends the run holding fleet totals
/// (dist/rank_loop.hpp).

#include <cstdint>

#include "dist/partition.hpp"
#include "graph/graph.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"
#include "net/tcp_transport.hpp"

namespace ds::net {

/// Multi-host synchronous executor on a fixed communication graph.
class TcpNetwork final : public local::Executor {
 public:
  /// Builds the topology and partition of `g` for `transport`'s rank
  /// count. `transport` must outlive the executor.
  TcpNetwork(const graph::Graph& g, TcpTransport& transport);

  local::RunResult run(const local::ProgramFactory& factory,
                       const local::OutputFn& output, local::IdStrategy ids,
                       std::uint64_t seed, std::size_t max_rounds,
                       local::CostMeter* meter = nullptr) override;

  void set_stats_sink(local::RoundStatsSink sink) override {
    sink_ = std::move(sink);
  }

  [[nodiscard]] std::size_t rank() const { return transport_.rank(); }

  /// The node partition (ranges, halo routing tables, edge-cut stats).
  [[nodiscard]] const dist::Partition& partition() const {
    return partition_;
  }

 private:
  local::NetworkTopology topology_;
  dist::Partition partition_;
  TcpTransport& transport_;
  local::RoundStatsSink sink_;
};

}  // namespace ds::net
