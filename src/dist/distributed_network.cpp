#include "dist/distributed_network.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cstdio>
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
                                       local::IdStrategy strategy,
                                       std::uint64_t seed,
                                       DistributedConfig config)
    : topology_(g, strategy, seed),
      config_(config),
      partition_(topology_,
                 resolve_workers(config.workers, g.num_nodes())),
      transport_(partition_, config.halo_words_per_port,
                 config.gather_words_per_node),
      control_region_(ControlBlock::bytes(partition_.num_workers())),
      programs_(partition_.num_workers()) {
  control_ = new (control_region_.data()) ControlBlock();
  control_->reset(static_cast<std::uint32_t>(partition_.num_workers()),
                  partition_.num_workers());
}

void DistributedNetwork::poll_children(const std::vector<pid_t>& children) {
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (reaped_[i]) continue;
    int status = 0;
    const pid_t r = ::waitpid(children[i], &status, WNOHANG);
    if (r != children[i]) continue;
    reaped_[i] = true;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      // A worker died without raising the abort flag (segfault, OOM kill,
      // ...): raise it on its behalf so nobody waits for it forever.
      control_->raise_abort(
          ("worker " + std::to_string(i + 1) + " exited abnormally").c_str());
    }
  }
}

std::size_t DistributedNetwork::run_worker(
    std::size_t w, const local::ProgramFactory& factory,
    std::size_t max_rounds, std::uint64_t& epoch, obs::Recorder* rec,
    const std::function<void()>* idle_poll) {
  ShmTransport transport(w, partition_, transport_, *control_, idle_poll);
  // Stats only on rank 0: it is the calling thread, matching the
  // sequential executor's single-sink contract.
  const local::RoundStatsSink sink = (w == 0) ? sink_ : local::RoundStatsSink{};
  return run_fleet(transport, rec, {}, [&](obs::Recorder* fleet_rec) {
    return run_rank_loop(RankView::of(topology_), partition_, transport,
                         factory, max_rounds, epoch, sink, output_fn_,
                         programs_[w], fleet_rec);
  });
}

std::size_t DistributedNetwork::run_threads(
    const local::ProgramFactory& factory, std::size_t max_rounds) {
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
  // Each thread advances its own copy of the round tag; all end equal.
  const std::uint64_t first_epoch = epoch_;
  const auto rank_main = [&, first_epoch](std::size_t w) {
    std::uint64_t epoch = first_epoch;
    try {
      run_worker(w, factory, max_rounds, epoch, lanes[w].get(), nullptr);
    } catch (const std::exception& e) {
      control_->raise_abort(e.what());
    } catch (...) {
      control_->raise_abort("unknown rank exception");
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
    rounds = run_worker(0, factory, max_rounds, epoch_, recorder(), nullptr);
  } catch (const std::exception& e) {
    control_->raise_abort(e.what());
  } catch (...) {
    control_->raise_abort("unknown rank exception");
  }
  return rounds;
}

std::size_t DistributedNetwork::run_forked(
    const local::ProgramFactory& factory, std::size_t max_rounds) {
  const std::size_t workers = partition_.num_workers();
  // Flush before forking: children inherit the stdio buffers, and _exit
  // must not replay buffered experiment output N times.
  std::fflush(nullptr);

  std::vector<pid_t> children;
  children.reserve(workers - 1);
  reaped_.assign(workers - 1, false);
  const auto kill_and_reap = [&] {
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (reaped_[i]) continue;
      ::kill(children[i], SIGKILL);
      int status = 0;
      ::waitpid(children[i], &status, 0);
      reaped_[i] = true;
    }
  };

  std::size_t rounds = 0;
  try {
    for (std::size_t w = 1; w < workers; ++w) {
      const pid_t pid = ::fork();
      DS_CHECK_MSG(pid >= 0, "fork failed");
      if (pid == 0) {
        // Worker process. Never returns into the caller: run, report
        // through shared memory, _exit (skipping atexit/stdio so nothing
        // is double-flushed and no in-process state is torn down twice).
#ifdef __linux__
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the parent
#endif
        int code = 0;
        try {
          run_worker(w, factory, max_rounds, epoch_, recorder(), nullptr);
        } catch (const std::exception& e) {
          control_->raise_abort(e.what());
          code = 3;
        } catch (...) {
          control_->raise_abort("unknown worker exception");
          code = 3;
        }
        ::_exit(code);
      }
      children.push_back(pid);
    }
    const std::function<void()> poll = [this, &children] {
      poll_children(children);
    };
    rounds = run_worker(0, factory, max_rounds, epoch_, recorder(),
                        children.empty() ? nullptr : &poll);
  } catch (const std::exception& e) {
    // Unblock everyone (first raiser's message wins — if a worker aborted
    // first, its cause is the one reported), then tear the fleet down.
    control_->raise_abort(e.what());
    kill_and_reap();
    const std::string msg = control_->abort_message();
    DS_CHECK_MSG(false, "distributed run failed: " +
                            (msg.empty() ? std::string(e.what()) : msg));
  }

  // Normal completion: reap the fleet and require clean exits.
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (reaped_[i]) continue;
    int status = 0;
    ::waitpid(children[i], &status, 0);
    reaped_[i] = true;
    DS_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "worker " + std::to_string(i + 1) + " exited abnormally");
  }
  return rounds;
}

std::size_t DistributedNetwork::run(const local::ProgramFactory& factory,
                                    std::size_t max_rounds,
                                    local::CostMeter* meter) {
  const std::size_t workers = partition_.num_workers();
  control_->reset(static_cast<std::uint32_t>(workers), workers);
  if (recorder() != nullptr) recorder()->set_lane_kind("worker");

  const std::size_t rounds = config_.spawn == RankSpawn::kThread
                                 ? run_threads(factory, max_rounds)
                                 : run_forked(factory, max_rounds);
  DS_CHECK_MSG(control_->abort_flag.load(std::memory_order_acquire) == 0,
               std::string("distributed run failed: ") +
                   control_->abort_message());

  // Assemble the output table from the ranks' gather blocks.
  if (output_fn_) {
    ShmTransport view(0, partition_, transport_, *control_, nullptr);
    assemble_outputs(view, partition_, outputs_);
  } else {
    outputs_.clear();
  }

  if (meter != nullptr) meter->add_executed(rounds);
  return rounds;
}

const local::NodeProgram& DistributedNetwork::program(graph::NodeId v) const {
  const std::size_t w = partition_.owner(v);
  return owned_program(programs_[w], partition_.first_node(w), v);
}

}  // namespace ds::dist
