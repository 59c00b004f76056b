#include "obs/perf.hpp"

#include <cerrno>
#include <cstring>
#include <ctime>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ds::obs {

namespace {

std::string errno_name(int err) {
  switch (err) {
    case EACCES:
      return "EACCES";
    case EPERM:
      return "EPERM";
    case ENOSYS:
      return "ENOSYS";
    case ENOENT:
      return "ENOENT";
    case ENODEV:
      return "ENODEV";
    case EOPNOTSUPP:
      return "EOPNOTSUPP";
    case EINVAL:
      return "EINVAL";
    case EMFILE:
      return "EMFILE";
    default:
      return "errno " + std::to_string(err);
  }
}

std::string degrade_reason(const char* event, int err) {
  std::string reason = std::string("perf_event_open(") + event +
                       ") failed with " + errno_name(err);
  if (err == EACCES || err == EPERM) {
    reason +=
        " — raise CAP_PERFMON or lower /proc/sys/kernel/perf_event_paranoid";
  }
  return reason;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_ctx_switches() {
#if defined(__linux__)
  rusage ru{};
  if (::getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_nvcsw) +
         static_cast<std::uint64_t>(ru.ru_nivcsw);
#else
  return 0;
#endif
}

#if defined(__linux__)
int open_event(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  // The leader starts disabled and is enabled for the whole group after
  // every member opened, so all counters cover the same window.
  attr.disabled = group_fd < 0 ? 1 : 0;
  // User-space only: paranoid levels <= 2 still allow this, and kernel time
  // would blur phase attribution anyway.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      ::syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}
#endif

}  // namespace

PerfCounters::PerfCounters() {
#if defined(__linux__)
  struct Event {
    std::uint32_t type;
    std::uint64_t config;
    const char* name;
  };
  // Read order is the PerfSample field order; software events are legal
  // members of a hardware-led group.
  const Event events[kNumGroupEvents] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES, "cache-references"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "cache-misses"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch-misses"},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task-clock"},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES, "context-switches"},
  };
  for (const Event& ev : events) {
    const int fd = open_event(ev.type, ev.config, leader_fd_);
    if (fd < 0) {
      // All or nothing: a partial group would make the derived ratios lie.
      fallback_reason_ = degrade_reason(ev.name, errno);
      close_all();
      return;
    }
    if (leader_fd_ < 0) leader_fd_ = fd;
    fds_.push_back(fd);
  }
  ::ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
#else
  fallback_reason_ = "perf_event_open is Linux-only";
#endif
}

PerfCounters::PerfCounters(int simulated_errno) {
  fallback_reason_ = degrade_reason("cycles", simulated_errno) + " (simulated)";
}

PerfCounters::~PerfCounters() { close_all(); }

void PerfCounters::close_all() {
#if defined(__linux__)
  for (const int fd : fds_) ::close(fd);
#endif
  fds_.clear();
  leader_fd_ = -1;
}

PerfSample PerfCounters::sample() const {
  PerfSample s;
#if defined(__linux__)
  if (leader_fd_ >= 0) {
    struct {
      std::uint64_t nr;
      std::uint64_t time_enabled;
      std::uint64_t time_running;
      std::uint64_t values[kNumGroupEvents];
    } data{};
    const ssize_t n = ::read(leader_fd_, &data, sizeof(data));
    if (n == static_cast<ssize_t>(sizeof(data)) && data.nr == kNumGroupEvents) {
      // With more counters than PMU slots the kernel time-shares the group;
      // scale observed counts to the full enabled window.
      const double scale =
          (data.time_running > 0 && data.time_running < data.time_enabled)
              ? static_cast<double>(data.time_enabled) /
                    static_cast<double>(data.time_running)
              : 1.0;
      const auto v = [&](std::size_t i) {
        return static_cast<std::uint64_t>(
            static_cast<double>(data.values[i]) * scale);
      };
      s.cycles = v(0);
      s.instructions = v(1);
      s.cache_refs = v(2);
      s.cache_misses = v(3);
      s.branch_misses = v(4);
      s.task_clock_ns = v(5);
      s.ctx_switches = v(6);
      return s;
    }
  }
#endif
  s.task_clock_ns = thread_cpu_ns();
  s.ctx_switches = thread_ctx_switches();
  return s;
}

PhasePerf::PhasePerf(Metrics& m, const PerfCounters& pc,
                     std::initializer_list<Phase> phases)
    : hardware_(pc.hardware()) {
  // The marker gauge is always present (1 = hardware group live, 0 =
  // degraded) so consumers can distinguish "no hardware counters" from "no
  // perf instrumentation at all".
  m.gauge("perf.hardware").set(hardware_ ? 1 : 0);
  for (const Phase p : phases) {
    Instruments& ins = per_phase_[static_cast<std::size_t>(p)];
    const std::string base = std::string("perf.") + phase_name(p) + ".";
    if (hardware_) {
      ins.cycles = m.counter(base + "cycles");
      ins.instructions = m.counter(base + "instructions");
      ins.cache_refs = m.counter(base + "cache_refs");
      ins.cache_misses = m.counter(base + "cache_misses");
      ins.branch_misses = m.counter(base + "branch_misses");
    }
    ins.task_clock_ns = m.counter(base + "task_clock_ns");
    ins.ctx_switches = m.counter(base + "ctx_switches");
  }
}

SpanPerf PhasePerf::account(Phase phase, const PerfSample& from,
                            const PerfSample& to) {
  Instruments& ins = per_phase_[static_cast<std::size_t>(phase)];
  // Clamp at zero: multiplex scaling can make consecutive reads jitter
  // backwards by a few counts.
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return b >= a ? b - a : 0;
  };
  SpanPerf out;
  if (hardware_ && from.cycles != kPerfUnavailable &&
      to.cycles != kPerfUnavailable) {
    out.cycles = delta(from.cycles, to.cycles);
    out.instructions = delta(from.instructions, to.instructions);
    ins.cycles.add(out.cycles);
    ins.instructions.add(out.instructions);
    ins.cache_refs.add(delta(from.cache_refs, to.cache_refs));
    ins.cache_misses.add(delta(from.cache_misses, to.cache_misses));
    ins.branch_misses.add(delta(from.branch_misses, to.branch_misses));
  }
  ins.task_clock_ns.add(delta(from.task_clock_ns, to.task_clock_ns));
  ins.ctx_switches.add(delta(from.ctx_switches, to.ctx_switches));
  return out;
}

RoundInstruments::RoundInstruments(Recorder* rec,
                                   std::initializer_list<Phase> phases)
    : rec_(rec) {
  if (rec == nullptr) return;
  Metrics& m = rec->metrics();
  live_nodes_ = m.counter("rounds.live_nodes");
  messages_ = m.counter("rounds.messages");
  payload_words_ = m.counter("rounds.payload_words");
  rounds_executed_ = m.gauge("rounds.executed");
  for (const Phase p : phases) {
    phase_us_[static_cast<std::size_t>(p)] =
        m.histogram(std::string("phase.") + phase_name(p) + ".us");
  }
  // Registered eagerly: the registry seals at the first round's publish.
  phase_perf_ = PhasePerf(m, perf_.emplace(), phases);
}

void RoundInstruments::begin(std::uint64_t round) {
  if (rec_ == nullptr) return;
  round_ = round;
  first_us_ = last_us_ = rec_->now_us();
  first_ = last_ = perf_->sample();
}

void RoundInstruments::close(Phase phase) {
  if (rec_ == nullptr) return;
  const std::uint64_t us = rec_->now_us();
  const PerfSample sample = perf_->sample();
  phase_us_[static_cast<std::size_t>(phase)].record(us - last_us_);
  const SpanPerf d = phase_perf_.account(phase, last_, sample);
  rec_->add_span(phase, round_, last_us_, us - last_us_, d.cycles,
                 d.instructions);
  last_us_ = us;
  last_ = sample;
}

void RoundInstruments::end(std::uint64_t live, std::uint64_t messages,
                           std::uint64_t words) {
  if (rec_ == nullptr) return;
  live_nodes_.add(live);
  messages_.add(messages);
  payload_words_.add(words);
  const std::uint64_t dur = last_us_ - first_us_;
  phase_us_[static_cast<std::size_t>(Phase::kRound)].record(dur);
  const SpanPerf d = phase_perf_.account(Phase::kRound, first_, last_);
  rec_->add_span(Phase::kRound, round_, first_us_, dur, d.cycles,
                 d.instructions, live, messages, words);
  // Round-boundary snapshot for the live HTTP endpoints: one coalesced
  // seqlock publish per round, no locks on the round path.
  rec_->publish_round(round_ + 1);
}

}  // namespace ds::obs
