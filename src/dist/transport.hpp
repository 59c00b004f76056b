#pragma once

/// \file transport.hpp
/// The abstract halo-exchange transport of the distributed executors.
///
/// A `Transport` is *one rank's* view of the round-synchronous exchange
/// protocol the multi-worker executors run (see rank_loop.hpp for the loop
/// itself). Two implementations exist:
///
///  * `dist::ShmTransport` (shm_transport.hpp) — the single-host fast path
///    between thread ranks: per-rank halo buffers the executor owns plus a
///    sense-reversing barrier. Zero-copy on the receive side.
///  * `net::TcpTransport` (net/tcp_transport.hpp) — genuine multi-host
///    execution: per-ordered-pair TCP connections carrying length-prefix
///    framed rounds; the frame exchange itself is the barrier.
///
/// The interface is phase-shaped rather than primitive-shaped (ship /
/// liveness-sync / patch / gather, not "barrier" and "send") because the two
/// implementations synchronize differently: shared memory needs explicit
/// barriers around a passive memory exchange, while TCP's receive *is* the
/// barrier — a rank cannot proceed before every peer's frame arrived. Both
/// meet the same contract:
///
///  * after `ship` returns, every peer's round traffic toward this rank is
///    available for `patch`, and no peer has started the next round's ship;
///  * after `sync_liveness` returns, every rank observes the same global
///    not-done total, and this rank's receive buffers may be reused;
///  * `abort` makes every live peer's next (or current) blocking call throw
///    instead of waiting forever.
///
/// Message payloads cross the transport verbatim (64-bit words in the
/// canonical cut-port order of `Partition::link`), which is what makes the
/// executors' bit-identical determinism contract transport-independent.
///
/// Every run on a transport goes through `dist::run_fleet` (rank_loop.hpp):
/// its observability agreement is one `sync_liveness`, it hooks the run's
/// recorder in with `set_recorder` for the run's duration, it turns any
/// failure into `abort`, and after the gather it merges the other ranks'
/// blocks through `gathered`. A transport only moves round traffic: each
/// rank's round spans count what a round did (rank_loop.hpp).

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "local/message_arena.hpp"

namespace ds::obs {
class Recorder;
}  // namespace ds::obs

namespace ds::dist {

/// One rank's view of the round-synchronous halo exchange. All calls are
/// made by the owning rank's execution thread, in the fixed per-round order
/// `ship -> patch -> update_bank_bases -> sync_liveness`, with one extra
/// `sync_liveness` before round 0 and one `gather` after the final round.
/// Implementations may (and do) rely on that order.
class Transport {
 public:
  virtual ~Transport() = default;

  /// This rank's index and the total rank count.
  [[nodiscard]] virtual std::size_t rank() const = 0;
  [[nodiscard]] virtual std::size_t num_ranks() const = 0;

  /// Publishes this rank's not-done count and returns the sum over all
  /// ranks. Doubles as the round-closing synchronization point: when it
  /// returns, this rank's received-payload buffers may be overwritten by
  /// the next round and every rank has agreed on whether the run continues.
  virtual std::size_t sync_liveness(std::size_t my_not_done) = 0;

  /// Ships this rank's staged out-halo spans (the slots past
  /// `Partition::num_local_ports(rank)` in `local_arena`, payload words in
  /// `bank_words`) to every peer, tagged `epoch`. Synchronizes: on return
  /// every peer's traffic toward this rank is patchable.
  virtual void ship(const local::MessageSpan* local_arena,
                    const std::uint64_t* bank_words, std::uint32_t epoch) = 0;

  /// Delivers every peer's shipped messages into this rank's local span
  /// arena: spans are tagged `epoch` with bank index `1 + src`.
  virtual void patch(local::MessageSpan* local_arena,
                     std::uint32_t epoch) = 0;

  /// Fills `bases` (resized to 1 + num_ranks) with the word-bank base table
  /// for this rank's Inboxes: index 0 = `own_bank`, index 1 + src = the
  /// received payload area of rank src (null when src sends nothing here).
  /// Call once per round after `patch` — both the private bank and some
  /// transports' receive buffers can move between rounds.
  virtual void update_bank_bases(std::vector<const std::uint64_t*>& bases,
                                 const std::uint64_t* own_bank) const = 0;

  /// End-of-run output gather: publishes this rank's payload (its
  /// observability block, then [length, words...] per owned node in node
  /// order; see rank_loop.hpp) and synchronizes so `gathered` rows are
  /// readable. Every rank calls it exactly once per run, through
  /// `gather_outputs`; the payload holds no rows when the run has no
  /// OutputFn.
  virtual void gather(const std::vector<std::uint64_t>& words) = 0;

  /// Rank w's gathered rows. Valid after `gather`, on every rank for every
  /// w: thread ranks share the gather vectors, and TCP rank 0 assembles and
  /// re-broadcasts the table so results are replicated SPMD-style.
  [[nodiscard]] virtual std::pair<const std::uint64_t*, std::size_t> gathered(
      std::size_t w) const = 0;

  /// Raises the collective abort: best effort, must not block indefinitely.
  /// Every live peer's current or next blocking transport call throws
  /// ds::CheckError instead of waiting for a rank that will never arrive.
  virtual void abort(const std::string& msg) = 0;

  /// Hooks this rank's transport counters into `rec` (nullptr unhooks);
  /// counters tick from then on.
  virtual void set_recorder(obs::Recorder* rec) = 0;
};

}  // namespace ds::dist
