#include "net/tcp_network.hpp"

#include "dist/rank_loop.hpp"

namespace ds::net {

TcpNetwork::TcpNetwork(const graph::Graph& g, TcpTransport& transport)
    : topology_(g),
      partition_(topology_, transport.num_ranks()),
      transport_(transport) {}

local::RunResult TcpNetwork::run(const local::ProgramFactory& factory,
                                 const local::OutputFn& output,
                                 local::IdStrategy ids, std::uint64_t seed,
                                 std::size_t max_rounds,
                                 local::CostMeter* meter) {
  topology_.assign_identity(ids, seed);
  transport_.attach_partition(partition_);
  local::RunResult result;
  result.rounds = dist::run_fleet(
      transport_, recorder(), {}, [&](obs::Recorder* rec) {
        const dist::RankRun run = dist::run_rank_loop(
            dist::RankView::of(topology_), partition_, transport_, factory,
            max_rounds, sink_, output, rec);
        dist::gather_outputs(transport_, rec, run.rounds, run.rows);
        return run.rounds;
      });
  // The re-broadcast rows are valid on every rank.
  if (output) dist::assemble_outputs(transport_, partition_, result.outputs);
  if (meter != nullptr) meter->add_executed(result.rounds);
  return result;
}

}  // namespace ds::net
