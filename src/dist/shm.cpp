#include "dist/shm.hpp"

#include <sched.h>
#include <time.h>

#include "support/check.hpp"

namespace ds::dist {

void SharedBarrier::wait(const std::atomic<std::uint32_t>& abort_flag) {
  DS_CHECK_MSG(abort_flag.load(std::memory_order_acquire) == 0,
               "distributed run aborted");
  const std::uint32_t my_phase = phase.load(std::memory_order_acquire);
  if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
    // Last arriver: reset the count and release the phase. The acq_rel RMW
    // chain on `arrived` makes every participant's pre-barrier writes
    // visible to anyone who acquires the new phase value.
    arrived.store(0, std::memory_order_relaxed);
    phase.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  // Waiters: ranks often outnumber cores, so escalate from yields to short
  // sleeps instead of burning the core the releaser needs.
  std::size_t spins = 0;
  while (phase.load(std::memory_order_acquire) == my_phase) {
    if (abort_flag.load(std::memory_order_acquire) != 0) {
      DS_CHECK_MSG(false, "distributed run aborted while waiting at barrier");
    }
    ++spins;
    if (spins < 64) {
      // busy spin
    } else if (spins < 4096) {
      ::sched_yield();
    } else {
      struct timespec ts{0, 200'000};  // 200 microseconds
      ::nanosleep(&ts, nullptr);
    }
  }
  DS_CHECK_MSG(abort_flag.load(std::memory_order_acquire) == 0,
               "distributed run aborted");
}

void ControlBlock::reset() {
  barrier.init(static_cast<std::uint32_t>(ranks_));
  abort_flag.store(0, std::memory_order_relaxed);
  msg_claimed.store(0, std::memory_order_relaxed);
  abort_msg.clear();
  for (std::size_t w = 0; w < ranks_; ++w) {
    WorkerCounters& c = counters_[w];
    c.not_done[0].store(0, std::memory_order_relaxed);
    c.not_done[1].store(0, std::memory_order_relaxed);
  }
}

void ControlBlock::raise_abort(const char* msg) {
  if (msg_claimed.exchange(1, std::memory_order_acq_rel) == 0) {
    abort_msg = msg == nullptr ? "" : msg;
  }
  abort_flag.store(1, std::memory_order_release);
}

}  // namespace ds::dist
