#pragma once

/// \file shm.hpp
/// Shared-memory primitives of the single-host multi-rank executor: a
/// sense-reversing barrier and the per-run control block (abort flag +
/// per-rank round counters).
///
/// The ranks are threads of one process, so these are plain members of the
/// `DistributedNetwork`; the barrier's acquire/release chain is what makes
/// each rank's pre-barrier writes (shipped halo buffers, gather rows,
/// counter slots) visible to every rank after it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace ds::dist {

/// Sense-reversing barrier. Waiters spin with escalating yields and short
/// sleeps (ranks routinely outnumber cores), checking the abort flag so a
/// failed rank cannot hang the others forever.
struct SharedBarrier {
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> phase{0};
  std::uint32_t parties = 0;

  void init(std::uint32_t num_parties) {
    arrived.store(0, std::memory_order_relaxed);
    phase.store(0, std::memory_order_relaxed);
    parties = num_parties;
  }

  /// Blocks until all `parties` participants arrive. Throws ds::CheckError
  /// when `abort_flag` becomes nonzero while waiting (or already is on
  /// entry).
  void wait(const std::atomic<std::uint32_t>& abort_flag);
};

/// Per-rank round counters, published before the barrier that ends the
/// phase which computed them. Relaxed atomics: the barrier provides the
/// ordering, the atomic type keeps concurrent access well-defined.
/// `not_done` alternates between two slots by sync parity: a run's
/// observability agreement and round 0's liveness sync follow each other
/// with no barrier in between, so a fast rank's second write must not
/// land in the slot a slow rank still sums.
struct alignas(64) WorkerCounters {
  std::atomic<std::uint64_t> senders{0};
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> payload_words{0};
  std::atomic<std::uint64_t> not_done[2] = {};
};

/// Control state of one DistributedNetwork: barrier, collective abort flag
/// with a first-writer-wins message, and one counter slot per rank.
struct ControlBlock {
  SharedBarrier barrier;
  std::atomic<std::uint32_t> abort_flag{0};
  std::atomic<std::uint32_t> msg_claimed{0};
  std::string abort_msg;  ///< written once, by the claimant

  explicit ControlBlock(std::size_t ranks)
      : counters_(std::make_unique<WorkerCounters[]>(ranks)), ranks_(ranks) {
    reset();
  }

  /// The counter slot of rank w.
  [[nodiscard]] WorkerCounters* counters(std::size_t w) {
    return &counters_[w];
  }

  /// Resets barrier, abort state and counters for a fresh run; call while
  /// no rank runs.
  void reset();

  /// Raises the collective abort flag; the first caller's message wins and
  /// is the one the run reports.
  void raise_abort(const char* msg);

  /// The abort message ("" when not aborted). Read it once every rank has
  /// stopped.
  [[nodiscard]] const std::string& abort_message() const { return abort_msg; }

 private:
  std::unique_ptr<WorkerCounters[]> counters_;
  std::size_t ranks_;
};

}  // namespace ds::dist
