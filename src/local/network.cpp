#include "local/network.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/perf.hpp"
#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace ds::local {

Network::Network(const graph::Graph& g) : topology_(g) {
  spans_.resize(topology_.total_ports());
}

std::size_t Network::run(const ProgramFactory& factory, IdStrategy ids,
                         std::uint64_t seed, std::size_t max_rounds,
                         CostMeter* meter) {
  const graph::Graph& g = topology_.graph();
  const std::size_t n = g.num_nodes();
  auto& programs = programs_;
  programs.clear();
  topology_.assign_identity(ids, seed);
  programs.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    programs[v] = factory(topology_.make_env(v));
    DS_CHECK(programs[v] != nullptr);
  }

  obs::Recorder* const rec = recorder();
  obs::RoundInstruments ins;
  std::unique_ptr<obs::PerfCounters> perf;
  obs::PhasePerf phase_perf;
  if (rec != nullptr) {
    const std::initializer_list<obs::Phase> phases = {
        obs::Phase::kSend, obs::Phase::kReceive, obs::Phase::kRound};
    ins = obs::RoundInstruments::create(rec->metrics(), phases);
    // Hardware counters sample at the same points as the phase clocks;
    // degradation (container, paranoid kernel) leaves the hardware names
    // unregistered and spans marked unavailable.
    perf = std::make_unique<obs::PerfCounters>();
    phase_perf = obs::PhasePerf(rec->metrics(), *perf, phases);
  }
  // Phase timing runs when either consumer is present; the fully disabled
  // path keeps the historical single clock read per round.
  const bool timed = rec != nullptr || sink_;
  const auto perf_now = [&] {
    return perf != nullptr ? perf->sample() : obs::PerfSample{};
  };

  std::size_t round = 0;
  auto all_done = [&] {
    return std::all_of(programs.begin(), programs.end(),
                       [](const auto& p) { return p->done(); });
  };
  while (!all_done()) {
    DS_CHECK_MSG(round < max_rounds, "Network::run exceeded max_rounds");
    const auto t0 = std::chrono::steady_clock::now();
    const obs::PerfSample p0 = perf_now();
    // Send phase: every live node serializes into the shared bank; slots
    // are tagged with this round's epoch, so no node can observe same-round
    // messages while producing its own (synchrony) and stale slots of
    // halted neighbors are ignored without clearing.
    ++epoch_;
    bank_.clear();
    std::size_t live = 0;
    std::size_t messages = 0;
    std::size_t payload_words = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (programs[v]->done()) continue;
      ++live;
      Outbox out(&bank_, 0, spans_.data(), topology_.delivery_row(v),
                 g.degree(v), epoch_);
      programs[v]->send(round, out);
      messages += out.messages();
      payload_words += out.payload_words();
    }
    const auto t_sent = timed ? std::chrono::steady_clock::now() : t0;
    const obs::PerfSample p_sent = perf_now();
    // Receive phase. The bank stops growing once sends are done, so the
    // base pointer is stable for every borrowed view.
    const std::uint64_t* bases[1] = {bank_.data()};
    for (graph::NodeId v = 0; v < n; ++v) {
      if (programs[v]->done()) continue;
      Inbox inbox(spans_.data() + topology_.port_offset(v), g.degree(v),
                  bases, epoch_);
      programs[v]->receive(round, inbox);
    }
    if (timed) {
      const auto t_end = std::chrono::steady_clock::now();
      const double send_s = std::chrono::duration<double>(t_sent - t0).count();
      const double recv_s =
          std::chrono::duration<double>(t_end - t_sent).count();
      if (rec != nullptr) {
        const obs::PerfSample p_end = perf_now();
        ins.live_nodes.add(live);
        ins.messages.add(messages);
        ins.payload_words.add(payload_words);
        const auto us0 = static_cast<std::uint64_t>(send_s * 1e6);
        const auto us1 = static_cast<std::uint64_t>(recv_s * 1e6);
        ins.us(obs::Phase::kSend).record(us0);
        ins.us(obs::Phase::kReceive).record(us1);
        ins.us(obs::Phase::kRound).record(us0 + us1);
        const obs::SpanPerf d_send =
            phase_perf.account(obs::Phase::kSend, p0, p_sent);
        const obs::SpanPerf d_recv =
            phase_perf.account(obs::Phase::kReceive, p_sent, p_end);
        const obs::SpanPerf d_round =
            phase_perf.account(obs::Phase::kRound, p0, p_end);
        // Span timestamps come from the recorder clock so every executor's
        // trace shares one timebase convention; phase durations reuse the
        // measured values.
        const std::uint64_t now = rec->now_us();
        const std::uint64_t start = now - us0 - us1;
        rec->add_span(obs::Phase::kSend, round, start, us0, d_send.cycles,
                      d_send.instructions);
        rec->add_span(obs::Phase::kReceive, round, start + us0, us1,
                      d_recv.cycles, d_recv.instructions);
        rec->add_span(obs::Phase::kRound, round, start, us0 + us1,
                      d_round.cycles, d_round.instructions);
        rec->publish_round(round + 1);  // live-introspection snapshot
      }
      if (sink_) {
        RoundStats stats;
        stats.round = round;
        stats.wall_seconds =
            std::chrono::duration<double>(t_end - t0).count();
        stats.live_nodes = live;
        stats.messages = messages;
        stats.payload_words = payload_words;
        stats.send_seconds = send_s;
        stats.receive_seconds = recv_s;
        sink_(stats);
      }
    }
    ++round;
  }
  if (rec != nullptr) {
    ins.rounds_executed.set(round);
    rec->publish_round(round);  // final snapshot includes rounds.executed
  }
  collect_outputs_from_programs();
  if (meter != nullptr) meter->add_executed(round);
  return round;
}

const NodeProgram& Network::program(graph::NodeId v) const {
  DS_CHECK(v < programs_.size());
  DS_CHECK(programs_[v] != nullptr);
  return *programs_[v];
}

std::shared_ptr<Executor> make_executor(const ExecutorFactory& factory,
                                        const graph::Graph& g) {
  if (factory) return factory(g);
  return std::make_shared<Network>(g);
}

}  // namespace ds::local
