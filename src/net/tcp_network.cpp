#include "net/tcp_network.hpp"

#include "dist/rank_loop.hpp"

namespace ds::net {

TcpNetwork::TcpNetwork(const graph::Graph& g, TcpTransport& transport)
    : topology_(g),
      partition_(topology_, transport.num_ranks()),
      transport_(transport) {}

std::size_t TcpNetwork::run(const local::ProgramFactory& factory,
                            local::IdStrategy ids, std::uint64_t seed,
                            std::size_t max_rounds, local::CostMeter* meter) {
  topology_.assign_identity(ids, seed);
  transport_.attach_partition(partition_);
  const std::size_t rounds = dist::run_fleet(
      transport_, recorder(), {}, [&](obs::Recorder* rec) {
        return dist::run_rank_loop(dist::RankView::of(topology_),
                                   partition_, transport_, factory,
                                   max_rounds, epoch_, sink_, output_fn_,
                                   programs_, rec);
      });
  // The re-broadcast output table is valid on every rank; assemble it
  // whenever a serializer is installed.
  if (output_fn_) {
    dist::assemble_outputs(transport_, partition_, outputs_);
  } else {
    outputs_.clear();
  }
  if (meter != nullptr) meter->add_executed(rounds);
  return rounds;
}

const local::NodeProgram& TcpNetwork::program(graph::NodeId v) const {
  return dist::owned_program(programs_, partition_.first_node(rank()), v);
}

}  // namespace ds::net
