#pragma once

/// \file recorder.hpp
/// Observability recorder: a `Metrics` registry plus a buffer of
/// phase-scoped trace spans, with (a) a word-level drain/merge codec so
/// distributed runtimes can ship every rank's data through the existing
/// gather machinery, and (b) Chrome trace-event / metrics JSON writers.
///
/// A `Recorder` is owned by whoever requested observability (the CLI
/// tools, a serving daemon, a test), handed to executors via
/// `local::Executor::set_recorder`, and may observe several runs.
/// Executors that fan out (thread ranks, TCP ranks) attribute
/// events to *lanes*: lane = rank. In the exported Chrome trace each lane
/// is one process row and each `Phase` one named thread track, so Perfetto
/// renders rank 3's barrier wait as its own timeline.
///
/// Timebase: `now_us()` is microseconds since the recorder's origin on the
/// steady clock (its construction, or the `t0_ns` it was built with).
/// Thread ranks record into per-run recorders built with rank 0's t0, so
/// single-host lanes share a timebase. TCP ranks each construct their own recorder, so
/// lane timebases drift; the transport estimates each rank's offset to
/// rank 0 from the rendezvous hello/welcome round-trip and records it as
/// `clock.offset.rank<R>.us` / `clock.t0.rank<R>.us` gauges —
/// `write_trace_json` shifts the merged lanes by those origins, so the
/// exported fleet trace is aligned to RTT/2 accuracy (per-lane ordering is
/// exact either way — that is what the monotone-timestamp test asserts).
///
/// The event buffer is a bounded *flight recorder*: at most
/// `event_capacity()` spans are retained, evicting oldest-first, with every
/// eviction counted in the `obs.events.dropped` counter — a long-lived
/// serving process cannot grow without bound, and the Chrome-trace export
/// notes the truncation in its metadata.
///
/// Drain/merge: `mark()` starts a block; `drain_words()` serializes what
/// entered the recorder since then into 64-bit words and leaves the local
/// state intact. A block carries counter and histogram count/sum deltas,
/// histogram min/max and gauge values as they stand, and the spans and
/// profile samples added since the mark. Every distributed run marks at its
/// start (`dist::run_fleet`), appends its block to the gather payload, and
/// merges every *other* rank's block with `merge_words()`. So each rank ends
/// a run holding fleet totals, and what a recorder held before the run
/// (earlier runs' merges, a forked loopback rank's inherited copy, a
/// serving rank 0's between-run `serve.*` counters) is never shipped
/// again.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ds::obs {

class SampledProfiler;
class SnapshotPublisher;

/// Sentinel for "no hardware counter data" in span perf fields — rendered
/// as an explicit `unavailable` (never zero) by the exporters.
inline constexpr std::uint64_t kPerfUnavailable = ~std::uint64_t{0};

/// The instrumented phases of a synchronous round. Values are part of the
/// drain/merge wire format (and the trace's thread-track ids); 6 is retired
/// and rejected by the codec.
enum class Phase : std::uint8_t {
  kRound = 0,    ///< whole round (send..liveness), the outermost span
  kSend = 1,     ///< local send phase: programs serialize into the arena
  kShip = 2,     ///< transport ship (includes its internal barrier/frames)
  kBarrier = 3,  ///< explicit synchronization waits outside ship
  kPatch = 4,    ///< patching received payloads into the local arena
  kReceive = 5,  ///< local receive phase: programs consume inboxes
  kGather = 7,   ///< end-of-run output gather
};

[[nodiscard]] const char* phase_name(Phase p);

/// One completed span. `lane` is the rank the span ran on.
/// The perf fields are the span's hardware-counter deltas (sampled at the
/// same points as the timestamps); `kPerfUnavailable` when the kernel
/// refused `perf_event_open` or the span site carries no counters.
/// A kRound span also says what the round did on its lane: the lane's live
/// nodes, messages and payload words (0 on every other phase). Summed over
/// lanes they are the round's `local::RoundStats`.
struct TraceEvent {
  std::uint32_t lane = 0;
  Phase phase = Phase::kRound;
  std::uint64_t round = 0;
  std::uint64_t ts_us = 0;   ///< start, µs since the recorder's t0
  std::uint64_t dur_us = 0;  ///< duration, µs
  std::uint64_t cycles = kPerfUnavailable;        ///< hw cycle delta
  std::uint64_t instructions = kPerfUnavailable;  ///< hw instruction delta
  std::uint64_t live = 0;      ///< nodes that ran the round on this lane
  std::uint64_t messages = 0;  ///< non-empty messages they sent
  std::uint64_t words = 0;     ///< payload words of those messages
};

class Recorder {
 public:
  Recorder();
  /// A recorder whose clock starts at steady-clock `t0_ns` instead of now —
  /// how a thread rank's lane shares rank 0's timebase.
  explicit Recorder(std::uint64_t t0_ns);

  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  /// Microseconds since construction (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  /// The steady-clock origin (ns) — the transport combines it with the
  /// handshake clock offset into the `clock.t0.rank<R>.us` gauge.
  [[nodiscard]] std::uint64_t t0_ns() const { return t0_ns_; }

  /// The default lane of spans recorded through `add_span` — distributed
  /// ranks set this to their rank when their round loop starts.
  void set_lane(std::uint32_t lane) { lane_ = lane; }
  [[nodiscard]] std::uint32_t lane() const { return lane_; }

  /// What a lane *is* in this run ("rank", "worker") — used for the
  /// trace's process names.
  void set_lane_kind(std::string kind) { lane_kind_ = std::move(kind); }
  [[nodiscard]] const std::string& lane_kind() const { return lane_kind_; }

  void add_span(Phase phase, std::uint64_t round, std::uint64_t ts_us,
                std::uint64_t dur_us,
                std::uint64_t cycles = kPerfUnavailable,
                std::uint64_t instructions = kPerfUnavailable,
                std::uint64_t live = 0, std::uint64_t messages = 0,
                std::uint64_t words = 0) {
    push_event({lane_, phase, round, ts_us, dur_us, cycles, instructions,
                live, messages, words});
  }

  /// The raw ring storage. Insertion order is only chronological while the
  /// ring has never wrapped (size < capacity) — use `ordered_events()` for
  /// an oldest-first view.
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// The retained events, oldest-first regardless of ring wraparound.
  [[nodiscard]] std::vector<TraceEvent> ordered_events() const;

  /// Resizes the flight-recorder ring (events beyond the new cap are
  /// evicted oldest-first and counted as dropped). Throws on cap == 0.
  void set_event_capacity(std::size_t cap);
  [[nodiscard]] std::size_t event_capacity() const { return event_cap_; }

  /// Lifetime eviction count of this recorder (the fleet-wide total lives
  /// in the `obs.events.dropped` counter, which drains/merges like any
  /// other metric).
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }

  /// Lifetime count of events entered, merged ones included: note it before
  /// a run to read that run's events back with `events_since`.
  [[nodiscard]] std::uint64_t events_pushed() const { return pushed_; }

  /// The events entered after the first `pushed`, oldest first. Throws
  /// ds::CheckError when the ring evicted any of them.
  [[nodiscard]] std::vector<TraceEvent> events_since(
      std::uint64_t pushed) const;

  /// Attaches (or detaches, nullptr) the live-introspection publisher. The
  /// recorder does not own it; the round loops push coalesced snapshots
  /// through `publish_round` at round boundaries.
  void set_publisher(SnapshotPublisher* pub) { publisher_ = pub; }
  [[nodiscard]] SnapshotPublisher* publisher() const { return publisher_; }

  /// Publishes a coalesced metrics snapshot (no-op without a publisher).
  /// `rounds` is the number of completed rounds — the HTTP layer's
  /// `rounds_total`. Called from the round-loop thread only.
  void publish_round(std::uint64_t rounds);

  /// Attaches (or detaches, nullptr) a sampling profiler. Not owned. With
  /// one attached, `drain_words()` folds its ring into the drained block —
  /// fleet runs merge every rank's profile through the existing gather.
  void set_profiler(SampledProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] SampledProfiler* profiler() const { return profiler_; }

  /// Folds the attached profiler's ring into the merged profile under this
  /// recorder's `<lane_kind>:<lane>` prefix (no-op without a profiler).
  /// `drain_words()` does this implicitly; the tools call it once more
  /// before `write_folded` so post-gather samples aren't lost.
  void absorb_profiler();

  /// The merged folded stacks (own absorbed samples + merged rank blocks).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& folded() const {
    return folded_;
  }

  /// Merges one folded stack line (tests / manual assembly).
  void merge_folded(const std::string& stack, std::uint64_t count) {
    folded_[stack] += count;
  }

  /// Writes the merged profile as collapsed/folded `stack count` lines
  /// (flamegraph.pl / speedscope input).
  void write_folded(std::ostream& out) const;

  /// Starts the next block: `drain_words()` ships only what is recorded
  /// from here on.
  void mark();

  /// Serializes what was recorded since the last `mark()` (since
  /// construction when never marked) into words; see the file comment.
  /// Local state stays intact.
  [[nodiscard]] std::vector<std::uint64_t> drain_words();

  /// Merges a `drain_words()` block in: metrics accumulate by name, events
  /// append. Throws ds::CheckError on a malformed block.
  void merge_words(const std::uint64_t* words, std::size_t count);

  /// Chrome trace-event JSON ({"traceEvents": [...], "metadata": {...}}),
  /// loadable in Perfetto / chrome://tracing: one process per lane, one
  /// thread per phase. When every event lane carries a
  /// `clock.t0.rank<R>.us` gauge (TCP fleets), lanes are shifted onto the
  /// common rank-0 timebase; metadata notes the flight-recorder drop count
  /// when events were evicted.
  void write_trace_json(std::ostream& out) const;

  /// The metrics snapshot as `obs::write_metrics_json` renders it.
  void write_metrics_json(
      std::ostream& out,
      const std::vector<std::pair<std::string, std::string>>& context) const;

  /// Human-readable summary table (the CLI's --stats view).
  void write_stats_table(std::ostream& out) const;

  /// Default flight-recorder capacity: 65,536 spans of 72 bytes (4.5 MiB)
  /// — hours of round traffic for a serving process, far above any one
  /// run's span count.
  static constexpr std::size_t kDefaultEventCapacity = 1 << 16;

 private:
  void push_event(const TraceEvent& e);

  Metrics metrics_;
  /// Flight-recorder ring: append until `event_cap_`, then overwrite the
  /// oldest slot (`next_`), counting each eviction.
  std::vector<TraceEvent> events_;
  std::size_t event_cap_ = kDefaultEventCapacity;
  std::size_t next_ = 0;       ///< oldest slot once the ring wrapped
  std::uint64_t pushed_ = 0;   ///< lifetime `push_event` calls
  std::uint64_t dropped_ = 0;  ///< lifetime evictions (this recorder)
  Counter dropped_counter_;    ///< obs.events.dropped
  std::uint32_t lane_ = 0;
  std::string lane_kind_ = "rank";
  std::uint64_t t0_ns_ = 0;  ///< steady-clock origin, ns
  SnapshotPublisher* publisher_ = nullptr;  ///< not owned
  SampledProfiler* profiler_ = nullptr;     ///< not owned
  /// Merged folded stacks: absorbed from the local profiler and
  /// accumulated from other ranks' blocks on merge.
  std::map<std::string, std::uint64_t> folded_;
  /// The block since the last `mark()`: every metric's count and sum then
  /// (by registration index; later registrations start from zero), the
  /// push count then, and the profile samples absorbed since.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mark_totals_;
  std::uint64_t mark_pushed_ = 0;
  std::map<std::string, std::uint64_t> folded_since_mark_;
};

}  // namespace ds::obs
