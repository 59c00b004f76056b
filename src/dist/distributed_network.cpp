#include "dist/distributed_network.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "dist/rank_loop.hpp"
#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace ds::dist {

std::size_t DistributedNetwork::resolve_workers(std::size_t workers) {
  if (workers != 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t DistributedNetwork::resolve_workers(std::size_t workers,
                                                std::size_t num_nodes) {
  // Ranks beyond the node count would own empty ranges yet still pay spawn
  // + per-round barrier costs.
  return std::max<std::size_t>(1,
                               std::min(resolve_workers(workers), num_nodes));
}

DistributedNetwork::DistributedNetwork(const graph::Graph& g,
                                       DistributedConfig config)
    : topology_(g),
      partition_(topology_, resolve_workers(config.workers, g.num_nodes())),
      transport_(partition_),
      control_(partition_.num_workers()) {}

std::size_t DistributedNetwork::run_worker(
    std::size_t w, const local::ProgramFactory& factory,
    const local::OutputFn& output, std::size_t max_rounds,
    obs::Recorder* rec) {
  ShmTransport transport(w, partition_, transport_, control_);
  // Stats only on rank 0: it is the calling thread, matching the
  // sequential executor's single-sink contract.
  const local::RoundStatsSink sink = (w == 0) ? sink_ : local::RoundStatsSink{};
  return run_fleet(transport, rec, {}, [&](obs::Recorder* fleet_rec) {
    const RankRun run =
        run_rank_loop(RankView::of(topology_), partition_, transport,
                      factory, max_rounds, sink, output, fleet_rec);
    gather_outputs(transport, fleet_rec, run.rounds, run.rows);
    return run.rounds;
  });
}

std::size_t DistributedNetwork::run_threads(
    const local::ProgramFactory& factory, const local::OutputFn& output,
    std::size_t max_rounds) {
  const std::size_t workers = partition_.num_workers();
  // Ranks 1..N-1 record into per-run recorders on rank 0's timebase, lane
  // kind and capacity; run_fleet merges their blocks into rank 0's.
  std::vector<std::unique_ptr<obs::Recorder>> lanes(workers);
  if (const obs::Recorder* rec = recorder(); rec != nullptr) {
    for (std::size_t w = 1; w < workers; ++w) {
      lanes[w] = std::make_unique<obs::Recorder>(rec->t0_ns());
      lanes[w]->set_lane_kind(rec->lane_kind());
      lanes[w]->set_event_capacity(rec->event_capacity());
    }
  }
  const auto rank_main = [&](std::size_t w) {
    try {
      run_worker(w, factory, output, max_rounds, lanes[w].get());
    } catch (const std::exception& e) {
      control_.raise_abort(e.what());
    } catch (...) {
      control_.raise_abort("unknown rank exception");
    }
  };
  // jthreads join on destruction: every spawned rank is joined on every
  // path, before `lanes` and the captures above go away.
  std::vector<std::jthread> ranks;
  std::size_t rounds = 0;
  try {
    ranks.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      ranks.emplace_back(rank_main, w);
    }
    rounds = run_worker(0, factory, output, max_rounds, recorder());
  } catch (const std::exception& e) {
    control_.raise_abort(e.what());
  } catch (...) {
    control_.raise_abort("unknown rank exception");
  }
  return rounds;
}

local::RunResult DistributedNetwork::run(const local::ProgramFactory& factory,
                                         const local::OutputFn& output,
                                         local::IdStrategy ids,
                                         std::uint64_t seed,
                                         std::size_t max_rounds,
                                         local::CostMeter* meter) {
  control_.reset();
  // Before any rank thread exists: the spawn publishes it to them.
  topology_.assign_identity(ids, seed);
  if (recorder() != nullptr) recorder()->set_lane_kind("worker");

  local::RunResult result;
  result.rounds = run_threads(factory, output, max_rounds);
  DS_CHECK_MSG(control_.abort_flag.load(std::memory_order_acquire) == 0,
               "distributed run failed: " + control_.abort_message());

  // Assemble the output table from the ranks' gather vectors.
  if (output) {
    ShmTransport view(0, partition_, transport_, control_);
    assemble_outputs(view, partition_, result.outputs);
  }

  if (meter != nullptr) meter->add_executed(result.rounds);
  return result;
}

}  // namespace ds::dist
