#include "net/tcp_network.hpp"

#include "dist/rank_loop.hpp"
#include "net/rendezvous.hpp"
#include "support/check.hpp"

namespace ds::net {

namespace {

std::size_t checked_ranks(const TcpNetworkConfig& config) {
  DS_CHECK_MSG(!config.hosts.empty(),
               "TcpNetwork: the hosts list must name at least one rank");
  DS_CHECK_MSG(config.rank < config.hosts.size(),
               "TcpNetwork: --rank must be < the hosts list size");
  return config.hosts.size();
}

}  // namespace

TcpNetwork::TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
                       std::uint64_t seed, TcpNetworkConfig config)
    : topology_(g, strategy, seed),
      partition_(std::make_shared<const dist::Partition>(
          topology_, checked_ranks(config))),
      own_transport_(std::make_unique<TcpTransport>(
          config.rank, config.hosts,
          InstanceDigests{topology_digest(topology_),
                          partition_digest(*partition_)},
          config.transport, std::move(config.listen))),
      transport_(*own_transport_),
      epoch_(own_epoch_) {
  transport_.attach_partition(*partition_);
}

TcpNetwork::TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
                       std::uint64_t seed, TcpTransport& transport,
                       std::uint64_t& epoch,
                       const PartitionProvider& partitions)
    : topology_(g, strategy, seed),
      partition_(partitions(topology_)),
      transport_(transport),
      epoch_(epoch) {
  transport_.attach_partition(*partition_);
}

std::size_t TcpNetwork::run(const local::ProgramFactory& factory,
                            std::size_t max_rounds, local::CostMeter* meter) {
  const std::size_t rounds = dist::run_fleet(
      transport_, recorder(), {}, [&](obs::Recorder* rec) {
        return dist::run_rank_loop(dist::RankView::of(topology_),
                                   *partition_, transport_, factory,
                                   max_rounds, epoch_, sink_, output_fn_,
                                   programs_, rec);
      });
  // The re-broadcast output table is valid on every rank; assemble it
  // whenever a serializer is installed.
  if (output_fn_) {
    dist::assemble_outputs(transport_, *partition_, outputs_);
  } else {
    outputs_.clear();
  }
  if (meter != nullptr) meter->add_executed(rounds);
  return rounds;
}

const local::NodeProgram& TcpNetwork::program(graph::NodeId v) const {
  return dist::owned_program(programs_, partition_->first_node(rank()), v);
}

}  // namespace ds::net
