#include "net/tcp_network.hpp"

#include <exception>

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

std::size_t run_fleet(TcpTransport& transport, obs::Recorder* recorder,
                      ObsMerge merge, const std::function<void()>& setup,
                      const std::function<std::size_t(obs::Recorder*)>& body) {
  // Both outlive the try block, so the catch-path abort still finds the
  // hooked recorder alive; the guard (destroyed first) unhooks it.
  std::unique_ptr<obs::Recorder> fleet_recorder;
  struct Unhook {
    TcpTransport& transport;
    const std::unique_ptr<obs::Recorder>& fleet_recorder;
    ~Unhook() {
      if (fleet_recorder != nullptr) transport.set_recorder(nullptr);
    }
  } unhook{transport, fleet_recorder};

  std::size_t rounds = 0;
  try {
    if (setup) setup();
    // Every rank runs the agreement unconditionally to stay in lockstep.
    const std::size_t observers =
        transport.sync_liveness(recorder != nullptr ? 1 : 0);
    if (observers != 0 && recorder == nullptr) {
      fleet_recorder = std::make_unique<obs::Recorder>();
      recorder = fleet_recorder.get();
    }
    transport.set_recorder(recorder);
    rounds = body(recorder);
  } catch (const std::exception& e) {
    // Transport-raised failures already aborted; the call is idempotent.
    transport.abort(e.what());
    throw;
  }
  // The kOutputs re-broadcast replicated every rank's gather payload, so
  // each rank can merge the fleet's observability blocks locally.
  if (recorder != nullptr) {
    if (merge == ObsMerge::kFleet) {
      dist::collect_fleet_obs(transport, *recorder);
    } else {
      // Rank 0's block would carry its cumulative serve counters, which the
      // next run's drain would hand back to rank 0: double counting.
      dist::collect_rank_obs(transport, transport.rank(), *recorder);
    }
    recorder->publish_round(rounds);  // the final, merged live snapshot
  }
  return rounds;
}

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
      epoch_(own_epoch_),
      merge_(ObsMerge::kFleet) {
  transport_.attach_partition(*partition_);
}

TcpNetwork::TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
                       std::uint64_t seed, TcpTransport& transport,
                       std::uint64_t& epoch,
                       const PartitionProvider& partitions)
    : topology_(g, strategy, seed),
      partition_(partitions(topology_)),
      transport_(transport),
      epoch_(epoch),
      merge_(transport.rank() == 0 ? ObsMerge::kFleet : ObsMerge::kOwnBlock) {
  transport_.attach_partition(*partition_);
}

std::size_t TcpNetwork::run(const local::ProgramFactory& factory,
                            std::size_t max_rounds, local::CostMeter* meter) {
  const std::size_t rounds = run_fleet(
      transport_, recorder(), merge_, {}, [&](obs::Recorder* rec) {
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
