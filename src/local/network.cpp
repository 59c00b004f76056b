#include "local/network.hpp"

#include <memory>

#include "obs/perf.hpp"
#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace ds::local {

Network::Network(const graph::Graph& g)
    : topology_(g), arena_(topology_.total_ports()) {}

RunResult Network::execute(const ProgramFactory& factory,
                           const OutputFn& output, IdStrategy ids,
                           std::uint64_t seed, std::size_t max_rounds,
                           obs::Recorder* rec) {
  const graph::Graph& g = topology_.graph();
  const auto n = static_cast<graph::NodeId>(g.num_nodes());
  topology_.assign_identity(ids, seed);
  // The run's programs: destroyed when run() returns or throws.
  const std::unique_ptr<ProgramBlock> block = factory(
      0, n, [this](graph::NodeId v) { return topology_.make_env(v); });
  DS_CHECK_MSG(block != nullptr && block->size() == n,
               "program factory must build one program per node");
  ProgramBlock& programs = *block;

  obs::RoundInstruments ins(
      rec, {obs::Phase::kSend, obs::Phase::kReceive, obs::Phase::kRound});

  std::size_t round = 0;
  auto all_done = [&] {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!programs.at(v).done()) return false;
    }
    return true;
  };
  while (!all_done()) {
    DS_CHECK_MSG(round < max_rounds, "Network::run exceeded max_rounds");
    ins.begin(round);
    // Send phase: every live node serializes into the shared bank; slots
    // are tagged with this round's epoch, so no node can observe same-round
    // messages while producing its own (synchrony) and stale slots of
    // halted neighbors are ignored without clearing.
    const std::uint32_t epoch = arena_.advance();
    bank_.clear();
    std::size_t live = 0;
    std::size_t messages = 0;
    std::size_t payload_words = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeProgram& program = programs.at(v);
      if (program.done()) continue;
      ++live;
      Outbox out(&bank_, 0, arena_.data(), topology_.delivery_row(v),
                 g.degree(v), epoch);
      program.send(round, out);
      messages += out.messages();
      payload_words += out.payload_words();
    }
    ins.close(obs::Phase::kSend);
    // Receive phase. The bank stops growing once sends are done, so the
    // base pointer is stable for every borrowed view.
    const std::uint64_t* bases[1] = {bank_.data()};
    for (graph::NodeId v = 0; v < n; ++v) {
      NodeProgram& program = programs.at(v);
      if (program.done()) continue;
      Inbox inbox(arena_.data() + topology_.port_offset(v), g.degree(v),
                  bases, epoch);
      program.receive(round, inbox);
    }
    ins.close(obs::Phase::kReceive);
    ins.end(live, messages, payload_words);
    ++round;
  }
  ins.finish(round);
  if (rec != nullptr) rec->publish_round(round);  // includes rounds.executed
  RunResult result;
  result.rounds = round;
  if (output) {
    result.outputs.start(n);
    std::vector<std::uint64_t> row;
    for (graph::NodeId v = 0; v < n; ++v) {
      row.clear();
      output(v, programs.at(v), row);
      result.outputs.append_row(row.data(), row.size());
    }
  }
  return result;
}

std::shared_ptr<Executor> make_executor(const ExecutorFactory& factory,
                                        const graph::Graph& g) {
  if (factory) return factory(g);
  return std::make_shared<Network>(g);
}

}  // namespace ds::local
