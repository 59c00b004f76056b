#pragma once

/// \file round_stats.hpp
/// Per-round observability hook of the LOCAL-model executors. The
/// sequential `Network` and the distributed rank loop (thread and TCP
/// ranks) aggregate these counters during the send phase and invoke the
/// sink once per executed round — the hook costs nothing when no sink is
/// installed.

#include <cstddef>
#include <functional>

namespace ds::local {

/// Counters for one executed synchronous round.
///
/// The first five fields are the *deterministic* set: for a fixed (graph,
/// IdStrategy, seed) every executor reports identical live_nodes / messages
/// / payload_words per round (tests/test_obs.cpp asserts this across all
/// four runtimes). The phase fields below are wall-time measurements and
/// naturally differ; a runtime leaves the phases it does not have at 0.0
/// (the sequential executor never ships or patches).
struct RoundStats {
  std::size_t round = 0;          ///< round index (0-based)
  double wall_seconds = 0.0;      ///< wall time of the round's epoch
  std::size_t live_nodes = 0;     ///< nodes scheduled (not done) this round
  std::size_t messages = 0;       ///< non-empty messages delivered
  std::size_t payload_words = 0;  ///< total 64-bit words across all messages

  // Per-phase breakdown (all seconds; 0.0 where the runtime has no such
  // phase). Appended fields keep every pre-existing sink source-compatible.
  double send_seconds = 0.0;     ///< program send phase (serialization)
  double ship_seconds = 0.0;     ///< transport ship, incl. its barrier
  double barrier_seconds = 0.0;  ///< explicit waits outside ship
  double patch_seconds = 0.0;    ///< patching received payloads
  double receive_seconds = 0.0;  ///< program receive phase
};

/// Invoked once per executed round, on the thread that called run().
using RoundStatsSink = std::function<void(const RoundStats&)>;

}  // namespace ds::local
