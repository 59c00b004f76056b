#pragma once

/// \file shm.hpp
/// Shared-memory primitives of the single-host multi-rank executor: an RAII
/// anonymous shared mapping, a sense-reversing barrier, and the per-run
/// control block (abort flag + per-rank round counters).
///
/// Regions are mapped MAP_SHARED | MAP_ANONYMOUS before any rank is
/// spawned, so every rank — a thread of the caller or a forked child — sees
/// the same pages at the same addresses, and lock-free `std::atomic` words
/// in them synchronize across threads and processes alike. Mappings use
/// MAP_NORESERVE — reserving generous virtual capacity is free; physical
/// pages are committed only when touched.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace ds::dist {

// Cross-process synchronization through shared mappings only works for
// address-free (lock-free) atomics (threads would not need it).
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

/// RAII anonymous shared mapping. Create before spawning ranks; forked
/// children inherit the mapping and never unmap (they exit via _exit), and
/// thread ranks are joined before it dies, so the owner's destructor is the
/// single release point.
class SharedRegion {
 public:
  /// Maps `bytes` (rounded up to the page size) of zeroed shared memory.
  explicit SharedRegion(std::size_t bytes);
  ~SharedRegion();

  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;
  SharedRegion(SharedRegion&& other) noexcept;
  SharedRegion& operator=(SharedRegion&& other) noexcept;

  [[nodiscard]] void* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  template <typename T>
  [[nodiscard]] T* as(std::size_t byte_offset = 0) const {
    return reinterpret_cast<T*>(static_cast<char*>(data_) + byte_offset);
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Thrown (as ds::CheckError, see shm.cpp) when a barrier wait observes the
/// collective abort flag — some worker failed and the round protocol is off.

/// Sense-reversing barrier in shared memory. Standard layout; lives inside
/// a SharedRegion. Waiters spin with escalating yields and short sleeps
/// (ranks routinely outnumber cores), checking the abort flag and an
/// optional poll hook so a dead forked worker cannot hang the others
/// forever.
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
  /// entry). `idle_poll`, if non-null, is invoked periodically while
  /// spinning — the parent uses it to detect crashed children and raise the
  /// abort flag.
  void wait(const std::atomic<std::uint32_t>& abort_flag,
            const std::function<void()>* idle_poll = nullptr);
};

/// Per-worker round counters, published before the barrier that ends the
/// phase which computed them. Relaxed atomics: the barrier provides the
/// ordering, the atomic type keeps concurrent access well-defined.
/// `not_done` alternates between two slots by sync parity: a run's
/// observability agreement and round 0's liveness sync follow each other
/// with no barrier in between, so a fast worker's second write must not
/// land in the slot a slow worker still sums.
struct alignas(64) WorkerCounters {
  std::atomic<std::uint64_t> senders{0};
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> payload_words{0};
  std::atomic<std::uint64_t> not_done[2] = {};
};

/// Shared control block of one DistributedNetwork: barrier, collective abort
/// flag with a first-writer-wins message buffer, and the per-worker counter
/// slots. Placement-constructed into a SharedRegion (`ControlBlock::bytes`
/// gives the required size for W workers).
struct alignas(64) ControlBlock {  // 64: the counter array starts at this+1
  static constexpr std::size_t kMsgCapacity = 512;

  SharedBarrier barrier;
  std::atomic<std::uint32_t> abort_flag{0};
  std::atomic<std::uint32_t> msg_claimed{0};
  char abort_msg[kMsgCapacity] = {};

  /// Bytes needed for the block followed by `workers` counter slots.
  static std::size_t bytes(std::size_t workers);

  /// The counter slot of worker w (the array lives right after the block).
  [[nodiscard]] WorkerCounters* counters(std::size_t w);

  /// Resets barrier, abort state and counters for a fresh run; call in the
  /// parent while no workers exist.
  void reset(std::uint32_t parties, std::size_t workers);

  /// Raises the collective abort flag; the first caller's message wins and
  /// is reported by every worker that trips over the flag.
  void raise_abort(const char* msg);

  /// The abort message ("" when aborted without one or not aborted).
  [[nodiscard]] const char* abort_message() const { return abort_msg; }
};

}  // namespace ds::dist
