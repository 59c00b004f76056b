#pragma once

/// \file shm_transport.hpp
/// The shared-memory halo exchange of the single-host multi-rank executor
/// (thread or forked ranks) — the fast path behind the abstract
/// `dist::Transport`.
///
/// One `HaloTransport` owns a single shared region holding, for every
/// ordered worker pair (s, d) with cut traffic, an exchange *block*, plus
/// one *gather block* per worker for end-of-run output collection.
///
/// Exchange block layout (all 64-bit words), written by s and read by d
/// once per round, with the executor's barriers ordering the two sides:
///
///     [ lengths: one word per cut port, canonical Partition order ]
///     [ payload: the non-empty messages' words, concatenated       ]
///
/// The canonical cut-port order of `Partition::link(s, d)` is known to both
/// sides, so no per-message routing metadata is shipped — a length of 0
/// means "no (or an empty) message on that cut port this round", which is
/// exactly the arena's own convention. Delivery is zero-copy on the receive
/// side: `patch` points the destination's span arena straight into the
/// shared payload area, and the `local::Inbox` borrows the words from
/// there like from any other word bank.
///
/// Capacity is reserved up front (virtual memory only, MAP_NORESERVE):
/// `halo_words_per_port` payload words per cut port. A round whose cut
/// traffic exceeds the reservation fails loudly — reporting the observed
/// per-port demand and the smallest knob value that would have fit —
/// because growing a mapping that N ranks share cannot be done safely
/// mid-round.
///
/// `ShmTransport` is the per-worker `dist::Transport` view over a
/// `HaloTransport` plus the shared `ControlBlock`: ship/patch walk the
/// shared blocks, and the phase synchronization is the control block's
/// sense-reversing barrier.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "dist/shm.hpp"
#include "dist/transport.hpp"
#include "local/message_arena.hpp"
#include "obs/recorder.hpp"

namespace ds::dist {

class HaloTransport {
 public:
  /// Lays out and maps the exchange + gather blocks for `part`. Must run in
  /// the caller before any rank is spawned. `halo_words_per_port` bounds
  /// one round's payload per cut port on average; gather blocks get one
  /// worker-port budget (degree-proportional rows fit by construction) plus
  /// `gather_words_per_node` on top (both have small floors so tiny graphs
  /// with chatty programs still fit).
  HaloTransport(const Partition& part, std::size_t halo_words_per_port,
                std::size_t gather_words_per_node);

  /// Serializes worker src's staged out-halo spans into its exchange
  /// blocks. `local_arena` is src's local span arena (out-halo slots start
  /// at `part.num_local_ports(src)`), `bank_words` its word bank base, and
  /// `epoch` the current round tag (spans with another tag ship length 0).
  /// Returns the total payload words copied across all pairs (the halo
  /// traffic this worker put on the "wire" this round).
  std::size_t ship(std::size_t src, const local::MessageSpan* local_arena,
                   const std::uint64_t* bank_words, std::uint64_t epoch) const;

  /// Delivers every peer's shipped messages into worker dst's local span
  /// arena (zero-copy: spans point into the shared payload areas, tagged
  /// with `epoch` and the per-source halo bank index `1 + src`).
  void patch(std::size_t dst, local::MessageSpan* local_arena,
             std::uint64_t epoch) const;

  /// Word-bank base table for worker w's `local::Inbox`s: index 0 is
  /// `own_bank`, index 1 + src the shared payload area of src's block
  /// toward w (null when src sends nothing to w). Rebuild each round —
  /// `own_bank` moves when the private bank reallocates.
  [[nodiscard]] std::vector<const std::uint64_t*> bank_bases(
      std::size_t w, const std::uint64_t* own_bank) const;

  /// `bank_bases` into a caller-owned vector (resized to 1 + W), so the
  /// per-round rebuild allocates nothing once the vector reached capacity.
  void fill_bank_bases(std::size_t w, const std::uint64_t* own_bank,
                       std::vector<const std::uint64_t*>& bases) const;

  /// Copies worker w's serialized output rows into its gather block.
  /// Layout: word 0 = total words that follow, then the rows.
  void write_gather(std::size_t w, const std::vector<std::uint64_t>& words);

  /// Worker w's gather payload (pointer to the rows, count from word 0).
  [[nodiscard]] std::pair<const std::uint64_t*, std::size_t> read_gather(
      std::size_t w) const;

 private:
  /// First word of the (src, dst) exchange block; 0 capacity when cut-free.
  [[nodiscard]] std::uint64_t* block(std::size_t src, std::size_t dst) const;

  std::size_t num_workers_;
  const Partition* part_;
  std::size_t halo_words_per_port_;  ///< the knob, echoed by overflow throws
  /// Word offsets of each ordered pair's block inside the region, dense
  /// src * W + dst; equal consecutive offsets mean an empty (cut-free) pair.
  std::vector<std::size_t> block_offset_;
  std::vector<std::size_t> block_capacity_;  ///< payload words per pair
  std::vector<std::size_t> gather_offset_;   ///< per worker, size W + 1
  SharedRegion region_;
};

/// Rank w's `dist::Transport` view over the shared exchange blocks and
/// control block. Constructed inside each rank (the caller, a thread or a
/// forked child) for the duration of one run; everything it points at is
/// owned by the `DistributedNetwork` and outlives the run.
class ShmTransport final : public Transport {
 public:
  /// `idle_poll`, if non-null, is invoked periodically while waiting at the
  /// shared barrier — forked rank 0 uses it to detect crashed children and
  /// raise the collective abort.
  ShmTransport(std::size_t worker, const Partition& part,
               HaloTransport& blocks, ControlBlock& control,
               const std::function<void()>* idle_poll)
      : worker_(worker),
        part_(&part),
        blocks_(&blocks),
        control_(&control),
        idle_poll_(idle_poll) {}

  [[nodiscard]] std::size_t rank() const override { return worker_; }
  [[nodiscard]] std::size_t num_ranks() const override {
    return part_->num_workers();
  }

  std::size_t sync_liveness(std::size_t my_not_done) override;
  void ship(const local::MessageSpan* local_arena,
            const std::uint64_t* bank_words, std::uint64_t epoch,
            const RoundTotals& mine) override;
  [[nodiscard]] RoundTotals round_totals() const override;
  void patch(local::MessageSpan* local_arena, std::uint64_t epoch) override;
  void update_bank_bases(std::vector<const std::uint64_t*>& bases,
                         const std::uint64_t* own_bank) const override;
  void gather(const std::vector<std::uint64_t>& words) override;
  [[nodiscard]] std::pair<const std::uint64_t*, std::size_t> gathered(
      std::size_t w) const override;
  void abort(const std::string& msg) override;

  /// Hooks this worker's transport counters (`shm.barrier.wait.us`,
  /// `shm.halo.words`) into `rec`; nullptr detaches.
  void set_recorder(obs::Recorder* rec) override;

 private:
  void barrier();

  std::size_t worker_;
  const Partition* part_;
  HaloTransport* blocks_;
  ControlBlock* control_;
  const std::function<void()>* idle_poll_;
  obs::Recorder* recorder_ = nullptr;
  /// `sync_liveness` calls so far: selects the not-done slot (shm.hpp).
  std::size_t syncs_ = 0;
  obs::Histogram barrier_wait_us_;
  obs::Counter halo_words_;
};

}  // namespace ds::dist
