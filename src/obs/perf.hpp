#pragma once

/// \file perf.hpp
/// Hardware performance counters for phase spans: a grouped
/// `perf_event_open(2)` wrapper (cycles, instructions, cache
/// references/misses, branch misses, task-clock, context switches) that the
/// round loops sample at the same points they take their wall-clock
/// timestamps, so every send/ship/patch/receive/barrier span carries a
/// cycle/instruction delta and the registry accumulates per-phase totals —
/// the inputs for the derived IPC and cache-miss-rate families.
///
/// Graceful degradation is the contract, not an afterthought: containers and
/// locked-down kernels (`/proc/sys/kernel/perf_event_paranoid` >= 2 with no
/// CAP_PERFMON, seccomp filters, VMs without a PMU) routinely refuse the
/// syscall. When any event in the group fails to open, the whole group is
/// torn down and `hardware()` turns false: hardware metric names are then
/// *never registered* (absent, not zero — a zero would read as "no work"),
/// span deltas carry the `kPerfUnavailable` sentinel, and only the always-
/// available task-clock (thread CPU time) and context-switch counters remain,
/// sourced from `CLOCK_THREAD_CPUTIME_ID` and `getrusage(RUSAGE_THREAD)`.
///
/// Counters are per-thread (`pid=0, cpu=-1`, user-space only): each round
/// loop — one per rank, thread ranks included — opens its own
/// `PerfCounters` on its thread, so deltas attribute work to the thread that
/// did it.
/// The group read uses `PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING` and scales
/// for multiplexing — seven events can exceed the PMU's slot count.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace ds::obs {

/// Cumulative counter values since `PerfCounters` construction. Hardware
/// fields hold `kPerfUnavailable` when the kernel refused the event group;
/// `task_clock_ns` / `ctx_switches` are always real (fallback sources:
/// thread CPU clock + rusage).
struct PerfSample {
  std::uint64_t cycles = kPerfUnavailable;
  std::uint64_t instructions = kPerfUnavailable;
  std::uint64_t cache_refs = kPerfUnavailable;
  std::uint64_t cache_misses = kPerfUnavailable;
  std::uint64_t branch_misses = kPerfUnavailable;
  std::uint64_t task_clock_ns = 0;
  std::uint64_t ctx_switches = 0;
};

/// One grouped perf-event session on the constructing thread. Sampling from
/// a different thread still works (the fds count the opening thread), so
/// keep construction and use on the same thread for honest attribution.
class PerfCounters {
 public:
  /// Events in the group, in read order.
  static constexpr std::size_t kNumGroupEvents = 7;

  PerfCounters();
  /// Test hook: behaves as if `perf_event_open` failed with this errno —
  /// exercises the degradation path on machines where the real syscall
  /// happens to work.
  explicit PerfCounters(int simulated_errno);
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when the hardware group is live; false means every `sample()`
  /// carries `kPerfUnavailable` hardware fields.
  [[nodiscard]] bool hardware() const { return leader_fd_ >= 0; }

  /// Why the group is degraded ("" when `hardware()`), naming the errno —
  /// EACCES/EPERM mention `perf_event_paranoid` since that is the usual fix.
  [[nodiscard]] const std::string& fallback_reason() const {
    return fallback_reason_;
  }

  /// Current cumulative values (multiplex-scaled). Never throws; degrades
  /// per the class contract.
  [[nodiscard]] PerfSample sample() const;

 private:
  void close_all();

  int leader_fd_ = -1;
  std::vector<int> fds_;  ///< all group fds, leader first
  std::string fallback_reason_;
};

/// A span's hardware delta, as attached to `TraceEvent`s. Both fields are
/// `kPerfUnavailable` under fallback — the trace/exposition layers render an
/// explicit "unavailable" rather than a fake zero.
struct SpanPerf {
  std::uint64_t cycles = kPerfUnavailable;
  std::uint64_t instructions = kPerfUnavailable;
};

/// Per-phase counter instruments: the bridge from raw `PerfSample` pairs to
/// the registry. Registers eagerly (the registry seals at the first
/// publish), and registers the hardware families *only* when the group is
/// live — degradation yields absent metrics, never zeros. Default-constructed
/// instances hold null handles and `account()` is a cheap no-op on them.
class PhasePerf {
 public:
  PhasePerf() = default;

  /// Registers `perf.<phase>.{cycles,instructions,cache_refs,cache_misses,
  /// branch_misses}` (hardware only), `perf.<phase>.{task_clock_ns,
  /// ctx_switches}` (always), and the `perf.hardware` 0/1 marker gauge.
  PhasePerf(Metrics& m, const PerfCounters& pc,
            std::initializer_list<Phase> phases);

  /// Accounts the delta [from, to) to `phase`'s counters and returns the
  /// span's cycle/instruction delta for the trace args.
  SpanPerf account(Phase phase, const PerfSample& from, const PerfSample& to);

 private:
  struct Instruments {
    Counter cycles;
    Counter instructions;
    Counter cache_refs;
    Counter cache_misses;
    Counter branch_misses;
    Counter task_clock_ns;
    Counter ctx_switches;
  };

  bool hardware_ = false;
  Instruments per_phase_[8];  ///< indexed by Phase value
};

}  // namespace ds::obs
