#pragma once

/// \file profile.hpp
/// Sampling flame-graph profiler: a SIGPROF/`setitimer(ITIMER_PROF)` timer
/// (CPU-time based, so idle waits cost no samples) whose handler captures a
/// backtrace into a bounded lock-free ring. Aggregation symbolizes the
/// retained stacks (`dladdr` + demangle) into collapsed/folded form —
/// `frame;frame;leaf count` lines, loadable by flamegraph.pl and speedscope —
/// which the `Recorder` drains into its wire codec so fleet runs merge every
/// rank's profile through the existing output gather, exactly like trace
/// lanes.
///
/// Bounds and safety:
///  - The ring holds `ring_capacity` samples of at most `kMaxDepth` frames;
///    overflow overwrites the oldest retained sample and counts a drop —
///    a serving process cannot grow without bound.
///  - The handler only does async-signal-safe work: `backtrace()` into a
///    stack buffer plus relaxed/release atomic stores (the one-time libgcc
///    dlopen `backtrace` needs is pre-warmed in `start()`).
///  - One profiler per process (`ITIMER_PROF` is a process-wide resource);
///    a second concurrent `start()` fails with a reason instead of silently
///    stealing the timer. Every thread of the process is sampled into the
///    one ring, so thread ranks (`--runtime=parallel`) all land in rank 0's
///    profile.
///  - Fork awareness: a `fork()`ed child inherits a copy of the ring but no
///    armed timer. Drain/collect in a process that did not call `start()`
///    returns nothing, so the forked ranks of a loopback TCP fleet never
///    double-report the parent's samples; each starts its own profiler
///    after the fork.
///
/// Caveat: `dladdr` only resolves symbols in the dynamic table — executables
/// should link with `-rdynamic` (the tools do) or frames fold to
/// `binary+0xoffset`.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include <signal.h>
#include <sys/types.h>

namespace ds::obs {

class SampledProfiler {
 public:
  struct Options {
    std::uint64_t interval_us = 1000;  ///< ITIMER_PROF period (CPU time)
    std::size_t ring_capacity = 1 << 14;
  };

  /// Deepest stack retained per sample; deeper frames are truncated leafward.
  static constexpr std::size_t kMaxDepth = 48;

  SampledProfiler();
  explicit SampledProfiler(Options opts);
  ~SampledProfiler();
  SampledProfiler(const SampledProfiler&) = delete;
  SampledProfiler& operator=(const SampledProfiler&) = delete;

  /// Installs the SIGPROF handler and arms the profiling timer. Returns
  /// false (with `error()` set) when sampling is unavailable — another
  /// profiler active, or the kernel refused the handler/timer.
  bool start();

  /// Disarms the timer and restores the previous SIGPROF disposition.
  /// Retained samples stay drainable. Idempotent.
  void stop();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Appends one stack (leaf-first, as `backtrace` returns) to the ring.
  /// Async-signal-safe; also the test hook for synthetic stacks.
  void record_sample(void* const* pcs, std::size_t depth);

  /// Lifetime sample count (including evicted samples).
  [[nodiscard]] std::uint64_t samples() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// Samples evicted by ring overflow since the last drain.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Symbolizes and aggregates the retained ring into folded stacks
  /// (root-first, ';'-joined, prefixed with `prefix;` when non-empty), then
  /// clears the ring. Returns nothing in a process that didn't `start()`
  /// this profiler (fork-copied rings must not double-report).
  std::map<std::string, std::uint64_t> drain_folded(const std::string& prefix);

  /// Like `drain_folded` but leaves the ring intact — the live
  /// `/api/v1/profile` view.
  std::map<std::string, std::uint64_t> collect_folded(
      const std::string& prefix) const;

  /// Writes folded stacks as `stack count` lines (flamegraph.pl /
  /// speedscope input), sorted by stack for deterministic output.
  static void write_folded(std::ostream& out,
                           const std::map<std::string, std::uint64_t>& folded);

 private:
  void handle_signal();
  std::map<std::string, std::uint64_t> fold(const std::string& prefix) const;
  static void sigprof_trampoline(int);

  const std::uint64_t interval_us_;
  const std::size_t cap_;
  /// Flat ring storage: `cap_` rows of `kMaxDepth` pc slots plus a depth
  /// word per row. `depth = 0` marks a row mid-write; readers skip it.
  std::unique_ptr<std::atomic<std::uintptr_t>[]> pcs_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> depths_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> paused_{false};

  bool active_ = false;
  pid_t owner_pid_ = -1;  ///< pid that called start(); guards forked copies
  std::string error_;
  struct sigaction old_action_ {};  ///< SIGPROF disposition to restore

  mutable std::mutex sym_mu_;
  mutable std::map<std::uintptr_t, std::string> sym_cache_;
};

}  // namespace ds::obs
