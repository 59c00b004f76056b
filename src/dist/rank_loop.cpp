#include "dist/rank_loop.hpp"

#include <exception>
#include <memory>

#include "local/message_arena.hpp"
#include "obs/perf.hpp"
#include "support/check.hpp"

namespace ds::dist {

RankRun run_rank_loop(const RankView& view, const Partition& part,
                      Transport& transport,
                      const local::ProgramFactory& factory,
                      std::size_t max_rounds, const local::OutputFn& output,
                      obs::Recorder* recorder) {
  const std::size_t w = transport.rank();
  const graph::NodeId first = part.first_node(w);
  const graph::NodeId last = part.last_node(w);
  const std::size_t port_base = part.port_base(w);
  const std::span<const std::uint32_t> local_delivery = part.local_delivery(w);

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
  // The Inboxes' bank bases: this rank's bank, then each peer's payload.
  std::vector<const std::uint64_t*> bases(1 + transport.num_ranks());

  const auto count_alive = [&] {
    std::size_t c = 0;
    for (graph::NodeId v = first; v < last; ++v) {
      if (!prog_at(v).done()) ++c;
    }
    return c;
  };

  if (recorder != nullptr) recorder->set_lane(static_cast<std::uint32_t>(w));
  // Each rank's round spans carry only its own share of the round's counts;
  // the post-gather merge of the other ranks' blocks brings in the rest.
  obs::RoundInstruments ins(
      recorder, {obs::Phase::kSend, obs::Phase::kShip, obs::Phase::kBarrier,
                 obs::Phase::kPatch, obs::Phase::kReceive,
                 obs::Phase::kRound});

  std::size_t alive = transport.sync_liveness(count_alive());
  std::size_t rounds = 0;
  while (alive > 0) {
    DS_CHECK_MSG(rounds < max_rounds,
                 "distributed run exceeded max_rounds");
    ins.begin(rounds);
    // Send phase: owned live nodes serialize into the private arena; the
    // local delivery table routes cut ports into the out-halo staging area.
    const std::uint32_t epoch = arena.advance();
    bank.clear();
    std::size_t live = 0;
    std::size_t messages = 0;
    std::size_t payload_words = 0;
    for (graph::NodeId v = first; v < last; ++v) {
      local::NodeProgram& prog = prog_at(v);
      if (prog.done()) continue;
      ++live;
      local::Outbox out(&bank, 0, arena.data(),
                        local_delivery.data() + (port_offset(v) - port_base),
                        degree(v), epoch);
      prog.send(rounds, out);
      messages += out.messages();
      payload_words += out.payload_words();
    }
    ins.close(obs::Phase::kSend);
    transport.ship(arena.data(), bank.data(), epoch);
    ins.close(obs::Phase::kShip);

    // Receive phase: patch the arena onto the shipped payloads, then run
    // the unmodified Inbox path over the owned live nodes.
    bases[0] = bank.data();
    transport.patch(arena.data(), epoch, bases);
    ins.close(obs::Phase::kPatch);
    for (graph::NodeId v = first; v < last; ++v) {
      local::NodeProgram& prog = prog_at(v);
      if (prog.done()) continue;
      local::Inbox inbox(arena.data() + (port_offset(v) - port_base),
                         degree(v), bases.data(), epoch);
      prog.receive(rounds, inbox);
    }
    ins.close(obs::Phase::kReceive);
    alive = transport.sync_liveness(count_alive());
    ins.close(obs::Phase::kBarrier);
    ins.end(live, messages, payload_words);
    ++rounds;
  }

  ins.finish(rounds);
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
  // hooked recorder alive; the guard (destroyed first) unhooks it. The hook
  // lasts the run only: a transport may outlive the run's recorder.
  std::unique_ptr<obs::Recorder> fleet_recorder;
  struct Unhook {
    Transport& transport;
    ~Unhook() { transport.set_recorder(nullptr); }
  } unhook{transport};

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
