#include "local/executor.hpp"

#include <optional>

#include "obs/recorder.hpp"

namespace ds::local {

RunResult Executor::run(const ProgramFactory& factory, const OutputFn& output,
                        IdStrategy ids, std::uint64_t seed,
                        std::size_t max_rounds, CostMeter* meter) {
  // A sink reads this call's round spans, so an unobserved call records
  // into a recorder of its own.
  std::optional<obs::Recorder> own;
  obs::Recorder* const rec =
      sink_ && recorder_ == nullptr ? &own.emplace() : recorder_;
  const std::uint64_t pushed = rec != nullptr ? rec->events_pushed() : 0;
  RunResult result = execute(factory, output, ids, seed, max_rounds, rec);
  if (meter != nullptr) meter->add_executed(result.rounds);
  if (!sink_) return result;

  // Round r's stats sum the lanes' kRound spans of round r. A rank's ring
  // evicts oldest-first and always keeps its newest span, the last
  // round's, so a lane short of spans shows as fewer spans in round 0.
  std::vector<RoundStats> stats(result.rounds);
  std::vector<std::size_t> lanes(result.rounds);
  for (const obs::TraceEvent& e : rec->events_since(pushed)) {
    if (e.phase != obs::Phase::kRound) continue;
    DS_CHECK_MSG(e.round < result.rounds,
                 "a round span past the run's last round");
    RoundStats& s = stats[e.round];
    s.live_nodes += e.live;
    s.messages += e.messages;
    s.payload_words += e.words;
    ++lanes[e.round];
  }
  DS_CHECK_MSG(result.rounds == 0 || lanes.front() == lanes.back(),
               "a rank's flight recorder evicted round spans of this run; "
               "raise its event capacity");
  for (std::size_t r = 0; r < stats.size(); ++r) {
    stats[r].round = r;
    sink_(stats[r]);
  }
  return result;
}

}  // namespace ds::local
