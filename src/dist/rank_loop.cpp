#include "dist/rank_loop.hpp"

#include <chrono>
#include <exception>
#include <memory>

#include "local/message_arena.hpp"
#include "obs/perf.hpp"
#include "support/check.hpp"

namespace ds::dist {

RankRun run_rank_loop(const RankView& view, const Partition& part,
                      Transport& transport,
                      const local::ProgramFactory& factory,
                      std::size_t max_rounds,
                      const local::RoundStatsSink& sink,
                      const local::OutputFn& output,
                      obs::Recorder* recorder) {
  const std::size_t w = transport.rank();
  const graph::NodeId first = part.first_node(w);
  const graph::NodeId last = part.last_node(w);
  const std::size_t port_base = part.port_base(w);
  const std::vector<std::uint32_t>& local_delivery = part.local_delivery(w);

  const auto port_offset = [&](graph::NodeId v) {
    return view.port_offsets[v - view.offset_first];
  };
  const auto degree = [&](graph::NodeId v) {
    return view.port_offsets[v - view.offset_first + 1] - port_offset(v);
  };

  // Only the owned range is constructed (factories are pure per node), as
  // one block at local indices, which dies on this thread.
  std::unique_ptr<local::ProgramBlock> programs =
      factory(first, last, view.env_of);
  DS_CHECK_MSG(programs != nullptr && programs->size() == last - first,
               "program factory must build one program per owned node");
  local::ProgramBlock& block = *programs;
  const auto prog_at = [&](graph::NodeId v) -> local::NodeProgram& {
    return block.at(v - first);
  };

  // Private round state: single-buffered bank + local span arena (own port
  // range followed by the out-halo staging slots) — the sequential
  // executor's layout, per rank. The arena is fresh, so every run tags
  // from epoch 1: the shm transport rewrites every halo span each round and
  // TCP patches only this arena, so nothing of an earlier run can match.
  local::WordBank bank;
  local::SpanArena arena(part.num_local_ports(w) + part.num_out_halo(w));
  std::vector<const std::uint64_t*> bases;

  const auto count_alive = [&] {
    std::size_t c = 0;
    for (graph::NodeId v = first; v < last; ++v) {
      if (!prog_at(v).done()) ++c;
    }
    return c;
  };

  obs::RoundInstruments ins;
  // Hardware counters ride the same sampling points as the wall-clock
  // timestamps; registered eagerly because the registry seals at the first
  // round's publish. Fallback (container, paranoid kernel) degrades to
  // task-clock/ctx-switch counters and `unavailable` span deltas.
  std::unique_ptr<obs::PerfCounters> perf;
  obs::PhasePerf phase_perf;
  if (recorder != nullptr) {
    const std::initializer_list<obs::Phase> phases = {
        obs::Phase::kSend,  obs::Phase::kShip,    obs::Phase::kBarrier,
        obs::Phase::kPatch, obs::Phase::kReceive, obs::Phase::kRound};
    ins = obs::RoundInstruments::create(recorder->metrics(), phases);
    recorder->set_lane(static_cast<std::uint32_t>(w));
    perf = std::make_unique<obs::PerfCounters>();
    phase_perf = obs::PhasePerf(recorder->metrics(), *perf, phases);
  }
  const bool timed = recorder != nullptr || sink;
  const auto us_now = [&] { return recorder != nullptr ? recorder->now_us()
                                                       : std::uint64_t{0}; };
  const auto perf_now = [&] {
    return perf != nullptr ? perf->sample() : obs::PerfSample{};
  };

  std::size_t alive = transport.sync_liveness(count_alive());
  std::size_t rounds = 0;
  while (alive > 0) {
    DS_CHECK_MSG(rounds < max_rounds,
                 "distributed run exceeded max_rounds");
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t us0 = us_now();
    const obs::PerfSample p0 = perf_now();
    // Send phase: owned live nodes serialize into the private arena; the
    // local delivery table routes cut ports into the out-halo staging area.
    const std::uint32_t epoch = arena.advance();
    bank.clear();
    Transport::RoundTotals mine;
    for (graph::NodeId v = first; v < last; ++v) {
      local::NodeProgram& prog = prog_at(v);
      if (prog.done()) continue;
      ++mine.senders;
      local::Outbox out(&bank, 0, arena.data(),
                        local_delivery.data() + (port_offset(v) - port_base),
                        degree(v), epoch);
      prog.send(rounds, out);
      mine.messages += out.messages();
      mine.payload_words += out.payload_words();
    }
    const auto t_sent = timed ? std::chrono::steady_clock::now() : t0;
    const std::uint64_t us_sent = us_now();
    const obs::PerfSample p_sent = perf_now();
    transport.ship(arena.data(), bank.data(), epoch, mine);
    const auto t_shipped = timed ? std::chrono::steady_clock::now() : t0;
    const std::uint64_t us_shipped = us_now();
    const obs::PerfSample p_shipped = perf_now();

    // Receive phase: patch the arena onto the shipped payloads, then run
    // the unmodified Inbox path over the owned live nodes.
    transport.patch(arena.data(), epoch);
    transport.update_bank_bases(bases, bank.data());
    const auto t_patched = timed ? std::chrono::steady_clock::now() : t0;
    const std::uint64_t us_patched = us_now();
    const obs::PerfSample p_patched = perf_now();
    local::RoundStats stats;
    if (sink) {
      // Totals are only stable between ship and the liveness sync (on the
      // shm transport a fast peer may overwrite its counter slot right
      // after the latter) — read them here.
      const Transport::RoundTotals totals = transport.round_totals();
      DS_CHECK_MSG(totals.aggregated,
                   "stats sink installed on a rank whose transport does not "
                   "aggregate round totals — the sink would report zeros");
      stats.round = rounds;
      stats.live_nodes = static_cast<std::size_t>(totals.senders);
      stats.messages = static_cast<std::size_t>(totals.messages);
      stats.payload_words = static_cast<std::size_t>(totals.payload_words);
    }
    for (graph::NodeId v = first; v < last; ++v) {
      local::NodeProgram& prog = prog_at(v);
      if (prog.done()) continue;
      local::Inbox inbox(arena.data() + (port_offset(v) - port_base),
                         degree(v), bases.data(), epoch);
      prog.receive(rounds, inbox);
    }
    const auto t_received = timed ? std::chrono::steady_clock::now() : t0;
    const std::uint64_t us_received = us_now();
    const obs::PerfSample p_received = perf_now();
    alive = transport.sync_liveness(count_alive());
    ++rounds;
    const auto t_end = std::chrono::steady_clock::now();
    if (recorder != nullptr) {
      // Deterministic counters take only this rank's share (`mine`): the
      // post-gather merge of the other ranks' blocks then reconstructs the
      // same fleet totals the sequential executor counts.
      ins.live_nodes.add(mine.senders);
      ins.messages.add(mine.messages);
      ins.payload_words.add(mine.payload_words);
      const std::uint64_t us_end = us_now();
      const obs::PerfSample p_end = perf_now();
      ins.us(obs::Phase::kSend).record(us_sent - us0);
      ins.us(obs::Phase::kShip).record(us_shipped - us_sent);
      ins.us(obs::Phase::kPatch).record(us_patched - us_shipped);
      ins.us(obs::Phase::kReceive).record(us_received - us_patched);
      ins.us(obs::Phase::kBarrier).record(us_end - us_received);
      ins.us(obs::Phase::kRound).record(us_end - us0);
      const obs::SpanPerf d_send =
          phase_perf.account(obs::Phase::kSend, p0, p_sent);
      const obs::SpanPerf d_ship =
          phase_perf.account(obs::Phase::kShip, p_sent, p_shipped);
      const obs::SpanPerf d_patch =
          phase_perf.account(obs::Phase::kPatch, p_shipped, p_patched);
      const obs::SpanPerf d_receive =
          phase_perf.account(obs::Phase::kReceive, p_patched, p_received);
      const obs::SpanPerf d_barrier =
          phase_perf.account(obs::Phase::kBarrier, p_received, p_end);
      const obs::SpanPerf d_round =
          phase_perf.account(obs::Phase::kRound, p0, p_end);
      const std::uint64_t r = rounds - 1;
      recorder->add_span(obs::Phase::kSend, r, us0, us_sent - us0,
                         d_send.cycles, d_send.instructions);
      recorder->add_span(obs::Phase::kShip, r, us_sent, us_shipped - us_sent,
                         d_ship.cycles, d_ship.instructions);
      recorder->add_span(obs::Phase::kPatch, r, us_shipped,
                         us_patched - us_shipped, d_patch.cycles,
                         d_patch.instructions);
      recorder->add_span(obs::Phase::kReceive, r, us_patched,
                         us_received - us_patched, d_receive.cycles,
                         d_receive.instructions);
      recorder->add_span(obs::Phase::kBarrier, r, us_received,
                         us_end - us_received, d_barrier.cycles,
                         d_barrier.instructions);
      recorder->add_span(obs::Phase::kRound, r, us0, us_end - us0,
                         d_round.cycles, d_round.instructions);
      // Round-boundary snapshot for the live HTTP endpoints: one coalesced
      // seqlock publish per round, no locks on the round path.
      recorder->publish_round(rounds);
    }
    if (sink) {
      stats.wall_seconds =
          std::chrono::duration<double>(t_end - t0).count();
      stats.send_seconds =
          std::chrono::duration<double>(t_sent - t0).count();
      stats.ship_seconds =
          std::chrono::duration<double>(t_shipped - t_sent).count();
      stats.patch_seconds =
          std::chrono::duration<double>(t_patched - t_shipped).count();
      stats.receive_seconds =
          std::chrono::duration<double>(t_received - t_patched).count();
      stats.barrier_seconds =
          std::chrono::duration<double>(t_end - t_received).count();
      sink(stats);
    }
  }

  if (recorder != nullptr) ins.rounds_executed.set(rounds);
  // The round state is private to this rank (peers read only the
  // transport's buffers), so it goes before the rows grow.
  arena = local::SpanArena(0);
  local::WordBank().swap(bank);
  // The owned programs' serialized rows ([length, words...] per node) are
  // all the run leaves behind; the block dies before the gather.
  RankRun run;
  run.rounds = rounds;
  if (output) {
    std::vector<std::uint64_t> row;
    for (graph::NodeId v = first; v < last; ++v) {
      row.clear();
      output(v, prog_at(v), row);
      run.rows.push_back(row.size());
      run.rows.insert(run.rows.end(), row.begin(), row.end());
    }
  }
  programs.reset();
  return run;
}

void gather_outputs(Transport& transport, obs::Recorder* recorder,
                    std::size_t rounds,
                    const std::vector<std::uint64_t>& rows) {
  // This rank's observability block, then its rows — see the file comment
  // in rank_loop.hpp for the layout.
  const std::uint64_t us_gather =
      recorder != nullptr ? recorder->now_us() : 0;
  const std::vector<std::uint64_t> obs_block =
      recorder != nullptr ? recorder->drain_words()
                          : std::vector<std::uint64_t>{};
  std::vector<std::uint64_t> gathered;
  gathered.reserve(1 + obs_block.size() + rows.size());
  gathered.push_back(obs_block.size());
  gathered.insert(gathered.end(), obs_block.begin(), obs_block.end());
  gathered.insert(gathered.end(), rows.begin(), rows.end());
  transport.gather(gathered);
  if (recorder != nullptr) {
    // The gather span lands *after* the drain, so it stays in this rank's
    // recorder only.
    recorder->add_span(obs::Phase::kGather, rounds, us_gather,
                       recorder->now_us() - us_gather);
  }
}

RankView RankView::of(const local::NetworkTopology& topo) {
  RankView view;
  view.num_nodes = topo.graph().num_nodes();
  view.port_offsets = topo.graph().offsets().data();
  view.env_of = [&topo](graph::NodeId v) { return topo.make_env(v); };
  return view;
}

namespace {

/// Skips rank `w`'s leading observability block, returning the row start.
std::size_t skip_obs_block(const std::uint64_t* words, std::size_t count) {
  DS_CHECK_MSG(count >= 1, "gather block missing the obs header");
  const auto obs_words = static_cast<std::size_t>(words[0]);
  DS_CHECK_MSG(1 + obs_words <= count, "gather block truncated (obs)");
  return 1 + obs_words;
}

}  // namespace

void assemble_outputs(const Transport& transport, const Partition& part,
                      local::OutputTable& out) {
  // Ranks own contiguous node ranges in order, so assembly is a linear scan.
  out.start(part.last_node(part.num_workers() - 1));
  for (std::size_t w = 0; w < part.num_workers(); ++w) {
    const auto [words, count] = transport.gathered(w);
    std::size_t pos = skip_obs_block(words, count);
    for (std::size_t i = 0; i < part.num_nodes(w); ++i) {
      DS_CHECK_MSG(pos < count, "gather block truncated");
      const auto len = static_cast<std::size_t>(words[pos]);
      ++pos;
      DS_CHECK_MSG(pos + len <= count, "gather block truncated");
      out.append_row(words + pos, len);
      pos += len;
    }
    DS_CHECK_MSG(pos == count, "gather block has trailing words");
  }
}

std::size_t run_fleet(Transport& transport, obs::Recorder* recorder,
                      const std::function<void()>& setup,
                      const std::function<std::size_t(obs::Recorder*)>& body) {
  // Both outlive the try block, so the catch-path abort still finds the
  // hooked recorder alive; the guard (destroyed first) unhooks it.
  std::unique_ptr<obs::Recorder> fleet_recorder;
  struct Unhook {
    Transport& transport;
    const std::unique_ptr<obs::Recorder>& fleet_recorder;
    ~Unhook() {
      if (fleet_recorder != nullptr) transport.set_recorder(nullptr);
    }
  } unhook{transport, fleet_recorder};

  if (recorder != nullptr) recorder->mark();
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
  if (recorder != nullptr) {
    // Every rank reads every gathered block (TCP re-broadcasts them, shm
    // workers share them). This rank's own totals are already local.
    for (std::size_t w = 0; w < transport.num_ranks(); ++w) {
      if (w == transport.rank()) continue;
      const auto [words, count] = transport.gathered(w);
      const std::size_t end = skip_obs_block(words, count);
      if (end > 1) recorder->merge_words(words + 1, end - 1);
    }
    recorder->publish_round(rounds);  // the final, merged live snapshot
  }
  return rounds;
}

}  // namespace ds::dist
