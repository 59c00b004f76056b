#include "runtime/parallel_network.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace ds::runtime {

namespace {

/// Steady-clock µs for shard timing when only a RoundStatsSink (no
/// recorder) is installed — the absolute base is irrelevant, only busy_us
/// differences are read.
std::uint64_t tick_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::size_t ParallelNetwork::resolve_threads(std::size_t num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ParallelNetwork::ParallelNetwork(const graph::Graph& g,
                                 local::IdStrategy strategy,
                                 std::uint64_t seed, std::size_t num_threads)
    : topology_(g, strategy, seed), pool_(resolve_threads(num_threads)) {
  const std::size_t n = g.num_nodes();
  // Contiguous shards, a few per thread so the dynamic chunk claiming in the
  // pool evens out residual imbalance without giving up cache locality;
  // boundaries split by port count so skewed-degree graphs don't put all of
  // the message work into one shard.
  const std::size_t num_shards =
      n == 0 ? 0 : std::min<std::size_t>(n, pool_.num_threads() * 4);
  bounds_ = dist::degree_balanced_boundaries(topology_.port_offsets(),
                                             num_shards);
  for (auto& banks : banks_) banks.resize(num_shards);
  for (auto& arena : span_arenas_) arena.resize(topology_.total_ports());
  read_bases_.resize(num_shards);
  counters_.resize(num_shards);
}

void ParallelNetwork::run_epoch_shard(std::size_t s) {
  const graph::Graph& g = topology_.graph();
  const EpochPlan plan = plan_;
  const graph::NodeId first = bounds_[s];
  const graph::NodeId last = bounds_[s + 1];
  ShardCounters c;
  // Workers only call the const now_us() on the shared recorder — safe
  // concurrently; each shard writes its own counters_ slot.
  obs::Recorder* const rec = recorder();
  if (plan.timed) c.start_us = rec != nullptr ? rec->now_us() : tick_us();
  // Per-thread hardware counters: pool threads are long-lived, so the
  // thread-local group opens once and attributes work to the thread that
  // did it. Sink-only (recorder-less) runs skip the sampling entirely.
  obs::PerfCounters* perf = nullptr;
  if (rec != nullptr && plan.timed) {
    static thread_local obs::PerfCounters tls_perf;
    perf = &tls_perf;
    c.perf_begin = perf->sample();
  }
  local::WordBank* bank = nullptr;
  if (plan.send) {
    // Bump-reset this shard's write bank; capacity is kept, so rounds past
    // the high-water mark allocate nothing.
    bank = &banks_[plan.write_buffer][s];
    bank->clear();
  }
  const std::uint64_t* const* bases = read_bases_.data();
  for (graph::NodeId v = first; v < last; ++v) {
    local::NodeProgram& prog = *programs_[v];
    // Per node, receive(r-1) strictly precedes send(r) — the same call
    // sequence the sequential executor produces (done() is re-checked in
    // between, exactly like its two phase loops do).
    if (plan.recv && !prog.done()) {
      local::Inbox inbox(plan.read_spans + topology_.port_offset(v),
                         g.degree(v), bases, plan.recv_epoch);
      prog.receive(plan.round - 1, inbox);
    }
    if (plan.send && !prog.done()) {
      ++c.senders;
      local::Outbox out(bank, static_cast<std::uint32_t>(s),
                        plan.write_spans, topology_.delivery_row(v),
                        g.degree(v), plan.send_epoch);
      prog.send(plan.round, out);
      c.messages += out.messages();
      c.payload_words += out.payload_words();
    }
    if (!prog.done()) ++c.not_done;
  }
  if (plan.timed) {
    c.busy_us = (rec != nullptr ? rec->now_us() : tick_us()) - c.start_us;
  }
  if (perf != nullptr) c.perf_end = perf->sample();
  counters_[s] = c;
}

std::size_t ParallelNetwork::run(const local::ProgramFactory& factory,
                                 std::size_t max_rounds,
                                 local::CostMeter* meter) {
  const std::size_t n = topology_.graph().num_nodes();
  programs_.clear();
  programs_.resize(n);
  // Program construction is sequential in node order, like the sequential
  // executor (factories are pure per node, see local/program.hpp).
  for (graph::NodeId v = 0; v < n; ++v) {
    programs_[v] = factory(topology_.make_env(v));
    DS_CHECK(programs_[v] != nullptr);
  }
  const std::size_t num_shards = bounds_.size() - 1;

  // Both run-scoped callables are constructed once; the per-round hot loop
  // performs no allocation.
  const std::function<void(std::size_t)> count_fn = [this](std::size_t s) {
    std::size_t c = 0;
    for (graph::NodeId v = bounds_[s]; v < bounds_[s + 1]; ++v) {
      if (!programs_[v]->done()) ++c;
    }
    counters_[s].not_done = c;
  };
  const std::function<void(std::size_t)> epoch_fn = [this](std::size_t s) {
    run_epoch_shard(s);
  };

  obs::Recorder* const rec = recorder();
  obs::RoundInstruments ins;
  obs::Histogram straggler_us;
  // The probe group only answers "is the hardware available" for eager
  // registration; the actual deltas come from each worker thread's
  // thread-local group, sampled inside run_epoch_shard.
  std::unique_ptr<obs::PerfCounters> perf_probe;
  obs::PhasePerf phase_perf;
  if (rec != nullptr) {
    ins = obs::RoundInstruments::create(
        rec->metrics(), {obs::Phase::kRound, obs::Phase::kEpoch});
    straggler_us = rec->metrics().histogram("shard.straggler.us");
    rec->set_lane_kind("shard");
    perf_probe = std::make_unique<obs::PerfCounters>();
    // Counters accrue to the epoch only: a round's totals are just its
    // shards' epoch deltas again (the round span still carries their sum).
    phase_perf =
        obs::PhasePerf(rec->metrics(), *perf_probe, {obs::Phase::kEpoch});
  }

  pool_.parallel_for(num_shards, count_fn);
  std::size_t alive = 0;
  for (const ShardCounters& c : counters_) alive += c.not_done;
  if (alive == 0) {
    if (rec != nullptr) ins.rounds_executed.set(0);
    collect_outputs_from_programs();
    if (meter != nullptr) meter->add_executed(0);
    return 0;
  }
  DS_CHECK_MSG(max_rounds > 0, "ParallelNetwork::run exceeded max_rounds");

  // Fused rounds: epoch r = receive(r-1) against the previous arena (epoch
  // 0 is the degenerate case with nothing to receive), then send(r) into
  // the current one — one barrier per round.
  plan_ = EpochPlan{};
  plan_.timed = rec != nullptr || static_cast<bool>(sink_);
  for (std::size_t r = 0;; ++r) {
    const bool sending = r < max_rounds;
    plan_.recv = r > 0;
    plan_.recv_epoch = epoch_;  // the tag round r-1's sends used
    plan_.send = sending;
    plan_.round = r;
    if (sending) {
      plan_.send_epoch = ++epoch_;
      plan_.write_spans = span_arenas_[r & 1].data();
      plan_.write_buffer = r & 1;
    }
    if (r > 0) {
      plan_.read_spans = span_arenas_[(r - 1) & 1].data();
      const std::vector<local::WordBank>& read_banks = banks_[(r - 1) & 1];
      for (std::size_t s = 0; s < num_shards; ++s) {
        read_bases_[s] = read_banks[s].data();
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    pool_.parallel_for(num_shards, epoch_fn);

    std::size_t senders = 0;
    std::size_t messages = 0;
    std::size_t payload_words = 0;
    std::size_t not_done = 0;
    std::uint64_t straggler = 0;
    for (const ShardCounters& c : counters_) {
      senders += c.senders;
      messages += c.messages;
      payload_words += c.payload_words;
      not_done += c.not_done;
      straggler = std::max(straggler, c.busy_us);
    }
    // A senders == 0 epoch is the trailing receive-only flush past the last
    // round; the sequential executor has no such round, so neither counters
    // nor stats may record it (the cross-runtime determinism of the
    // `rounds.*` metrics depends on this).
    if (rec != nullptr && senders > 0) {
      ins.live_nodes.add(senders);
      ins.messages.add(messages);
      ins.payload_words.add(payload_words);
      straggler_us.record(straggler);
      std::uint64_t round_start = UINT64_MAX;
      std::uint64_t round_end = 0;
      // The round's hardware totals are the sum of shard busy deltas (the
      // run() thread only waits at the barrier, so its own counters would
      // add nothing); unavailable on any shard marks the round span too.
      std::uint64_t round_cycles = 0;
      std::uint64_t round_insns = 0;
      bool round_perf = true;
      for (std::size_t s = 0; s < num_shards; ++s) {
        const ShardCounters& c = counters_[s];
        ins.us(obs::Phase::kEpoch).record(c.busy_us);
        const obs::SpanPerf d =
            phase_perf.account(obs::Phase::kEpoch, c.perf_begin, c.perf_end);
        rec->add_span_on(static_cast<std::uint32_t>(s), obs::Phase::kEpoch,
                         r, c.start_us, c.busy_us, d.cycles, d.instructions);
        if (d.cycles == obs::kPerfUnavailable) {
          round_perf = false;
        } else {
          round_cycles += d.cycles;
          round_insns += d.instructions;
        }
        round_start = std::min(round_start, c.start_us);
        round_end = std::max(round_end, c.start_us + c.busy_us);
      }
      ins.us(obs::Phase::kRound).record(round_end - round_start);
      rec->add_span(obs::Phase::kRound, r, round_start,
                    round_end - round_start,
                    round_perf ? round_cycles : obs::kPerfUnavailable,
                    round_perf ? round_insns : obs::kPerfUnavailable);
      rec->publish_round(r + 1);  // live-introspection snapshot
    }
    if (sink_ && senders > 0) {
      local::RoundStats stats;
      stats.round = r;
      stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      stats.live_nodes = senders;
      stats.messages = messages;
      stats.payload_words = payload_words;
      stats.max_shard_seconds = static_cast<double>(straggler) / 1e6;
      sink_(stats);
    }
    if (not_done == 0) {
      // Round r executed iff anything was sent in it (a program may halt
      // only after a final send — the sequential executor then counts that
      // farewell round too).
      const std::size_t rounds = senders > 0 ? r + 1 : r;
      if (rec != nullptr) {
        ins.rounds_executed.set(rounds);
        rec->publish_round(rounds);  // final snapshot with rounds.executed
      }
      collect_outputs_from_programs();
      if (meter != nullptr) meter->add_executed(rounds);
      return rounds;
    }
    DS_CHECK_MSG(sending, "ParallelNetwork::run exceeded max_rounds");
  }
}

const local::NodeProgram& ParallelNetwork::program(graph::NodeId v) const {
  DS_CHECK(v < programs_.size());
  DS_CHECK(programs_[v] != nullptr);
  return *programs_[v];
}

}  // namespace ds::runtime
