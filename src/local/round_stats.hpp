#pragma once

/// \file round_stats.hpp
/// Per-round observability hook of the LOCAL-model executors. A sink
/// installed with `Executor::set_stats_sink` receives one `RoundStats` per
/// executed round after the run's rounds end; the executor builds them from
/// the run's kRound trace spans (obs/recorder.hpp), so a run without a sink
/// counts nothing for it.

#include <cstddef>
#include <functional>

namespace ds::local {

/// Counters for one executed synchronous round. All four are deterministic:
/// for a fixed (graph, IdStrategy, seed) every executor reports identical
/// values per round (tests/test_dist.cpp, test_runtime.cpp and
/// test_net_tcp.cpp assert this against the sequential executor).
struct RoundStats {
  std::size_t round = 0;          ///< round index (0-based)
  std::size_t live_nodes = 0;     ///< nodes scheduled (not done) this round
  std::size_t messages = 0;       ///< non-empty messages delivered
  std::size_t payload_words = 0;  ///< total 64-bit words across all messages
};

/// Invoked once per executed round, in round order, on the thread that
/// called run().
using RoundStatsSink = std::function<void(const RoundStats&)>;

}  // namespace ds::local
