#pragma once

/// \file shm_transport.hpp
/// The in-process halo exchange of the single-host multi-rank executor
/// (thread ranks) — the fast path behind the abstract `dist::Transport`.
///
/// One `HaloTransport`, owned by the executor, holds per rank a *halo
/// buffer* — one span per out-halo slot and the words those spans point
/// at — and a *gather vector* for end-of-run output collection. The ranks
/// share one address space, so nothing is sized up front: each buffer
/// grows to its rank's largest round and keeps that capacity across runs.
///
/// Per round, with the executor's barriers ordering the two sides:
///
///  * `ship` copies rank s's epoch-current out-halo messages into s's halo
///    buffer, each span re-tagged with bank index 1 + s;
///  * `patch` copies every peer's epoch-current halo spans into the
///    receiving rank's own arena at the canonical `Partition::link` slots;
///  * the bank-base table points index 1 + s at s's halo words, so the
///    `local::Inbox` reads them in place — zero-copy on the receive side.
///
/// The halo buffers belong to the executor, not to the rank loop, so a
/// rank that throws mid-round (its own arena and bank unwind with it)
/// never frees memory a peer is still reading.
///
/// `ShmTransport` is the per-rank `dist::Transport` view over a
/// `HaloTransport` plus the `ControlBlock`: ship/patch/gather walk the
/// per-rank buffers, and the phase synchronization is the control block's
/// sense-reversing barrier.

#include <cstddef>
#include <cstdint>
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
  /// One halo buffer and gather vector per rank of `part`, which must
  /// outlive the transport.
  explicit HaloTransport(const Partition& part);

  /// Copies rank src's epoch-current out-halo messages into its halo
  /// buffer. `local_arena` is src's local span arena (out-halo slots start
  /// at `part.num_local_ports(src)`), `bank_words` its word bank base, and
  /// `epoch` the current round tag (spans with another tag are not sent).
  /// Returns the payload words copied (the halo traffic this rank put on
  /// the "wire" this round).
  std::size_t ship(std::size_t src, const local::MessageSpan* local_arena,
                   const std::uint64_t* bank_words, std::uint32_t epoch);

  /// Delivers every peer's shipped messages into rank dst's local span
  /// arena: spans tagged `epoch` and bank index `1 + src`, pointing into
  /// src's halo words.
  void patch(std::size_t dst, local::MessageSpan* local_arena,
             std::uint32_t epoch) const;

  /// Word-bank base table for rank w's `local::Inbox`s, into a caller-owned
  /// vector (resized to 1 + W, so the per-round rebuild allocates nothing
  /// once it reached capacity): index 0 is `own_bank`, index 1 + src the
  /// halo words of src (null when src sends nothing to w). Rebuild each
  /// round — both `own_bank` and the halo words move when they grow.
  void fill_bank_bases(std::size_t w, const std::uint64_t* own_bank,
                       std::vector<const std::uint64_t*>& bases) const;

  /// Copies rank w's serialized output rows into its gather vector.
  void write_gather(std::size_t w, const std::vector<std::uint64_t>& words) {
    gathered_[w] = words;
  }

  /// Rank w's gather payload.
  [[nodiscard]] std::pair<const std::uint64_t*, std::size_t> read_gather(
      std::size_t w) const {
    return {gathered_[w].data(), gathered_[w].size()};
  }

 private:
  /// One rank's shipped round: a span per out-halo slot (epoch 0 where
  /// nothing was sent) and the words they point at.
  struct Halo {
    std::vector<local::MessageSpan> spans;
    std::vector<std::uint64_t> words;
  };

  const Partition* part_;
  std::vector<Halo> halo_;
  std::vector<std::vector<std::uint64_t>> gathered_;
};

/// Rank w's `dist::Transport` view over the executor's halo buffers and
/// control block. Constructed inside each rank (the caller or a thread)
/// for the duration of one run; everything it points at is owned by the
/// `DistributedNetwork` and outlives the run.
class ShmTransport final : public Transport {
 public:
  ShmTransport(std::size_t worker, const Partition& part,
               HaloTransport& halo, ControlBlock& control)
      : worker_(worker), part_(&part), halo_(&halo), control_(&control) {}

  [[nodiscard]] std::size_t rank() const override { return worker_; }
  [[nodiscard]] std::size_t num_ranks() const override {
    return part_->num_workers();
  }

  std::size_t sync_liveness(std::size_t my_not_done) override;
  void ship(const local::MessageSpan* local_arena,
            const std::uint64_t* bank_words, std::uint32_t epoch,
            const RoundTotals& mine) override;
  [[nodiscard]] RoundTotals round_totals() const override;
  void patch(local::MessageSpan* local_arena, std::uint32_t epoch) override;
  void update_bank_bases(std::vector<const std::uint64_t*>& bases,
                         const std::uint64_t* own_bank) const override;
  void gather(const std::vector<std::uint64_t>& words) override;
  [[nodiscard]] std::pair<const std::uint64_t*, std::size_t> gathered(
      std::size_t w) const override;
  void abort(const std::string& msg) override;

  /// Hooks this rank's transport counters (`shm.barrier.wait.us`,
  /// `shm.halo.words`) into `rec`; nullptr detaches.
  void set_recorder(obs::Recorder* rec) override;

 private:
  void barrier();

  std::size_t worker_;
  const Partition* part_;
  HaloTransport* halo_;
  ControlBlock* control_;
  obs::Recorder* recorder_ = nullptr;
  /// `sync_liveness` calls so far: selects the not-done slot (shm.hpp).
  std::size_t syncs_ = 0;
  obs::Histogram barrier_wait_us_;
  obs::Counter shipped_words_;
};

}  // namespace ds::dist
