#include "obs/recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>

#include "obs/exposition.hpp"
#include "obs/profile.hpp"
#include "obs/publish.hpp"
#include "support/check.hpp"

namespace ds::obs {

namespace {

/// Leading word of a drained block ("ds_obs_2" as big-endian bytes) — a
/// format tag, so a misaligned or foreign block fails loudly in merge.
/// v2 (this PR): events carry cycle/instruction deltas (7 words) and the
/// block gains a folded-stack profile section. Both codec ends live in this
/// file, so the version only ever changes in lockstep.
constexpr std::uint64_t kObsMagic = 0x64735f6f62735f32ull;

/// Words per serialized TraceEvent.
constexpr std::size_t kEventWords = 7;

/// Appends [byte_length, packed chars...] — obs deliberately has its own
/// tiny string codec rather than depending on net/frame.hpp.
void pack_string(std::vector<std::uint64_t>& out, const std::string& s) {
  out.push_back(s.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[i]))
            << (8 * (i % 8));
    if (i % 8 == 7) {
      out.push_back(word);
      word = 0;
    }
  }
  if (s.size() % 8 != 0) out.push_back(word);
}

std::string unpack_string(const std::uint64_t* words, std::size_t count,
                          std::size_t& pos) {
  DS_CHECK_MSG(pos < count, "obs block truncated (string length)");
  const auto len = static_cast<std::size_t>(words[pos++]);
  const std::size_t nwords = (len + 7) / 8;
  DS_CHECK_MSG(pos + nwords <= count, "obs block truncated (string bytes)");
  std::string s(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((words[pos + i / 8] >> (8 * (i % 8))) & 0xff);
  }
  pos += nwords;
  return s;
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kRound:
      return "round";
    case Phase::kSend:
      return "send";
    case Phase::kShip:
      return "ship";
    case Phase::kBarrier:
      return "barrier";
    case Phase::kPatch:
      return "patch";
    case Phase::kReceive:
      return "receive";
    case Phase::kGather:
      return "gather";
  }
  return "?";
}

Recorder::Recorder()
    : Recorder(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

Recorder::Recorder(std::uint64_t t0_ns) : t0_ns_(t0_ns) {
  // Registered up front, not lazily on the first eviction: a drop can
  // happen mid-run, after the registry is sealed against new names.
  dropped_counter_ = metrics_.counter("obs.events.dropped");
}

void Recorder::push_event(const TraceEvent& e) {
  ++pushed_;
  if (events_.size() < event_cap_) {
    events_.push_back(e);
    return;
  }
  events_[next_] = e;  // overwrite the oldest retained span
  next_ = (next_ + 1) % event_cap_;
  ++dropped_;
  dropped_counter_.add(1);
}

std::vector<TraceEvent> Recorder::ordered_events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  if (events_.size() < event_cap_) {
    out = events_;  // never wrapped: storage order is insertion order
  } else {
    out.insert(out.end(), events_.begin() + static_cast<std::ptrdiff_t>(next_),
               events_.end());
    out.insert(out.end(), events_.begin(),
               events_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void Recorder::set_event_capacity(std::size_t cap) {
  DS_CHECK_MSG(cap > 0, "flight-recorder capacity must be positive");
  if (events_.size() > cap) {
    // Shrinking evicts oldest-first, exactly as organic ring pressure would.
    std::vector<TraceEvent> kept = ordered_events();
    const std::size_t evicted = kept.size() - cap;
    kept.erase(kept.begin(), kept.begin() + static_cast<std::ptrdiff_t>(evicted));
    events_ = std::move(kept);
    dropped_ += evicted;
    dropped_counter_.add(evicted);
  } else if (events_.size() == event_cap_) {
    // The ring was exactly full (possibly wrapped); rebase so storage order
    // is insertion order again before growing.
    events_ = ordered_events();
  }
  event_cap_ = cap;
  next_ = 0;
}

void Recorder::publish_round(std::uint64_t rounds) {
  if (publisher_ != nullptr) publisher_->publish(metrics_, rounds);
}

std::uint64_t Recorder::now_us() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return (now - t0_ns_) / 1000;
}

void Recorder::absorb_profiler() {
  if (profiler_ == nullptr) return;
  const std::string prefix = lane_kind_ + ":" + std::to_string(lane_);
  for (const auto& [stack, count] : profiler_->drain_folded(prefix)) {
    folded_[stack] += count;
    folded_since_mark_[stack] += count;
  }
}

void Recorder::write_folded(std::ostream& out) const {
  SampledProfiler::write_folded(out, folded_);
}

void Recorder::mark() {
  mark_totals_.clear();
  for (std::size_t i = 0; i < metrics_.num_metrics(); ++i) {
    const MetricSnapshot s = metrics_.aggregate(i);
    mark_totals_.emplace_back(s.count, s.sum);
  }
  mark_pushed_ = pushed_;
  folded_since_mark_.clear();
}

std::vector<std::uint64_t> Recorder::drain_words() {
  absorb_profiler();
  // The newest events, up to what was pushed since the mark and is still
  // retained (storage index of the k-th oldest: (head + k) % size).
  const std::size_t size = events_.size();
  const std::size_t new_events = static_cast<std::size_t>(
      std::min<std::uint64_t>(pushed_ - mark_pushed_, size));
  const std::size_t head = size < event_cap_ ? 0 : next_;
  std::vector<std::uint64_t> out;
  out.push_back(kObsMagic);
  out.push_back(metrics_.num_metrics());
  out.push_back(new_events);
  out.push_back(folded_since_mark_.size());
  for (std::size_t i = 0; i < metrics_.num_metrics(); ++i) {
    MetricSnapshot s = metrics_.aggregate(i);
    if (s.kind != Kind::kGauge && i < mark_totals_.size()) {
      s.count -= mark_totals_[i].first;
      s.sum -= mark_totals_[i].second;
    }
    if (s.kind == Kind::kHistogram && s.count == 0) {
      s.min = UINT64_MAX;  // nothing recorded since the mark: ship the
      s.max = 0;           // merge identities, not stale extremes
    }
    pack_string(out, s.name);
    out.push_back(static_cast<std::uint64_t>(s.kind));
    out.push_back(s.count);
    out.push_back(s.sum);
    out.push_back(s.min);
    out.push_back(s.max);
  }
  for (std::size_t k = size - new_events; k < size; ++k) {
    const TraceEvent& e = events_[(head + k) % size];
    out.push_back(e.lane);
    out.push_back(static_cast<std::uint64_t>(e.phase));
    out.push_back(e.round);
    out.push_back(e.ts_us);
    out.push_back(e.dur_us);
    out.push_back(e.cycles);
    out.push_back(e.instructions);
  }
  for (const auto& [stack, count] : folded_since_mark_) {
    pack_string(out, stack);
    out.push_back(count);
  }
  return out;
}

void Recorder::merge_words(const std::uint64_t* words, std::size_t count) {
  std::size_t pos = 0;
  DS_CHECK_MSG(count >= 4 && words[pos] == kObsMagic,
               "obs block has a bad magic word");
  ++pos;
  const auto num_metrics = static_cast<std::size_t>(words[pos++]);
  const auto num_events = static_cast<std::size_t>(words[pos++]);
  const auto num_folded = static_cast<std::size_t>(words[pos++]);
  for (std::size_t i = 0; i < num_metrics; ++i) {
    MetricSnapshot s;
    s.name = unpack_string(words, count, pos);
    DS_CHECK_MSG(pos + 5 <= count, "obs block truncated (metric)");
    DS_CHECK_MSG(words[pos] <= static_cast<std::uint64_t>(Kind::kHistogram),
                 "obs block has an unknown metric kind");
    s.kind = static_cast<Kind>(words[pos]);
    s.count = words[pos + 1];
    s.sum = words[pos + 2];
    s.min = words[pos + 3];
    s.max = words[pos + 4];
    pos += 5;
    metrics_.merge(s);
  }
  for (std::size_t i = 0; i < num_events; ++i) {
    DS_CHECK_MSG(pos + kEventWords <= count, "obs block truncated (event)");
    TraceEvent e;
    e.lane = static_cast<std::uint32_t>(words[pos]);
    DS_CHECK_MSG(words[pos + 1] <= static_cast<std::uint64_t>(Phase::kGather) &&
                     words[pos + 1] != 6,  // retired
                 "obs block has an unknown phase");
    e.phase = static_cast<Phase>(words[pos + 1]);
    e.round = words[pos + 2];
    e.ts_us = words[pos + 3];
    e.dur_us = words[pos + 4];
    e.cycles = words[pos + 5];
    e.instructions = words[pos + 6];
    pos += kEventWords;
    push_event(e);  // merged events obey the flight-recorder bound too
  }
  for (std::size_t i = 0; i < num_folded; ++i) {
    const std::string stack = unpack_string(words, count, pos);
    DS_CHECK_MSG(pos < count, "obs block truncated (folded count)");
    folded_[stack] += words[pos++];
  }
  DS_CHECK_MSG(pos == count, "obs block has trailing words");
}

void Recorder::write_trace_json(std::ostream& out) const {
  const std::vector<TraceEvent> ordered = ordered_events();
  out << "{\"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
  };
  // Metadata: one process row per lane, one named thread track per phase
  // seen on that lane. Sort indices keep lanes in rank order and phases in
  // protocol order.
  std::set<std::uint32_t> lanes;
  std::set<std::pair<std::uint32_t, std::uint8_t>> tracks;
  for (const TraceEvent& e : ordered) {
    lanes.insert(e.lane);
    tracks.insert({e.lane, static_cast<std::uint8_t>(e.phase)});
  }
  // Cross-rank alignment: TCP ranks record on private timebases, but each
  // publishes its recorder origin on rank 0's clock as a
  // `clock.t0.rank<R>.us` gauge (rendezvous RTT estimate). When *every*
  // event lane carries one, shift each lane by its origin relative to the
  // earliest — single-timebase runs (sequential/thread ranks have no such
  // gauges) pass through unshifted.
  std::map<std::uint32_t, std::uint64_t> lane_shift;
  std::uint64_t dropped_total = 0;
  {
    std::map<std::uint32_t, std::int64_t> origin;
    for (const MetricSnapshot& s : metrics_.snapshot()) {
      if (s.name == "obs.events.dropped") dropped_total = s.value();
      constexpr const char* kPrefix = "clock.t0.rank";
      if (s.kind != Kind::kGauge || s.name.rfind(kPrefix, 0) != 0) continue;
      const std::size_t start = std::string(kPrefix).size();
      const std::size_t end = s.name.find('.', start);
      if (end == std::string::npos) continue;
      const std::uint32_t r = static_cast<std::uint32_t>(
          std::stoul(s.name.substr(start, end - start)));
      origin[r] = static_cast<std::int64_t>(s.value());
    }
    const bool all_aligned = !lanes.empty() &&
        std::all_of(lanes.begin(), lanes.end(),
                    [&](std::uint32_t l) { return origin.count(l) != 0; });
    if (all_aligned) {
      std::int64_t min_origin = origin.begin()->second;
      for (const std::uint32_t l : lanes) {
        min_origin = std::min(min_origin, origin[l]);
      }
      for (const std::uint32_t l : lanes) {
        lane_shift[l] = static_cast<std::uint64_t>(origin[l] - min_origin);
      }
    }
  }
  const auto shifted = [&](const TraceEvent& e) {
    const auto it = lane_shift.find(e.lane);
    return it == lane_shift.end() ? e.ts_us : e.ts_us + it->second;
  };
  for (const std::uint32_t lane : lanes) {
    sep();
    out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << lane
        << ", \"args\": {\"name\": \"" << json_escape(lane_kind_) << " "
        << lane << "\"}}";
    sep();
    out << "{\"ph\": \"M\", \"name\": \"process_sort_index\", \"pid\": "
        << lane << ", \"args\": {\"sort_index\": " << lane << "}}";
  }
  for (const auto& [lane, phase] : tracks) {
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << lane
        << ", \"tid\": " << static_cast<int>(phase)
        << ", \"args\": {\"name\": \""
        << phase_name(static_cast<Phase>(phase)) << "\"}}";
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": "
        << lane << ", \"tid\": " << static_cast<int>(phase)
        << ", \"args\": {\"sort_index\": " << static_cast<int>(phase)
        << "}}";
  }
  for (const TraceEvent& e : ordered) {
    sep();
    out << "{\"ph\": \"X\", \"name\": \"" << phase_name(e.phase)
        << "\", \"pid\": " << e.lane
        << ", \"tid\": " << static_cast<int>(e.phase) << ", \"ts\": "
        << shifted(e) << ", \"dur\": " << e.dur_us
        << ", \"args\": {\"round\": " << e.round;
    // Spans carry their hardware deltas when the span site sampled a live
    // counter group; degraded runs mark the absence explicitly so a reader
    // never mistakes "no counters" for "zero work".
    if (e.cycles != kPerfUnavailable && e.instructions != kPerfUnavailable) {
      out << ", \"cycles\": " << e.cycles
          << ", \"instructions\": " << e.instructions;
      if (e.cycles > 0) {
        char ipc[32];
        std::snprintf(ipc, sizeof(ipc), "%.3f",
                      static_cast<double>(e.instructions) /
                          static_cast<double>(e.cycles));
        out << ", \"ipc\": " << ipc;
      }
    } else {
      out << ", \"perf\": \"unavailable\"";
    }
    out << "}}";
  }
  out << "\n]";
  out << ",\n\"metadata\": {\"clock_aligned_lanes\": "
      << (lane_shift.empty() ? "false" : "true")
      << ", \"dropped_events\": " << dropped_total;
  if (dropped_total > 0) {
    out << ", \"truncated\": true, \"note\": \"flight-recorder ring "
           "evicted the oldest " << dropped_total << " span(s)\"";
  }
  out << "}}\n";
}

void Recorder::write_metrics_json(
    std::ostream& out,
    const std::vector<std::pair<std::string, std::string>>& context) const {
  obs::write_metrics_json(out, context, metrics_.snapshot());
}

void Recorder::write_stats_table(std::ostream& out) const {
  const std::vector<MetricSnapshot> snaps = metrics_.snapshot();
  out << "-- stats ------------------------------------------------------\n";
  std::size_t width = 24;
  for (const MetricSnapshot& s : snaps) {
    width = std::max(width, s.name.size() + 2);
  }
  for (const MetricSnapshot& s : snaps) {
    if (s.kind == Kind::kHistogram) continue;
    out << "  " << std::left << std::setw(static_cast<int>(width)) << s.name
        << std::right << std::setw(14);
    if (s.kind == Kind::kGauge && signed_gauge_name(s.name)) {
      out << static_cast<std::int64_t>(s.value());
    } else {
      out << s.value();
    }
    out << "\n";
  }
  bool any_hist = false;
  double round_mean = 0.0;  // denominator of the share column
  for (const MetricSnapshot& s : snaps) {
    if (s.kind != Kind::kHistogram) continue;
    any_hist = true;
    if (s.name == "phase.round.us") round_mean = s.mean();
  }
  if (any_hist) {
    out << "  " << std::left << std::setw(static_cast<int>(width))
        << "(histogram)" << std::right << std::setw(10) << "count"
        << std::setw(12) << "sum" << std::setw(12) << "min" << std::setw(12)
        << "max" << std::setw(12) << "mean" << std::setw(9) << "share"
        << "\n";
    for (const MetricSnapshot& s : snaps) {
      if (s.kind != Kind::kHistogram) continue;
      // Mean with one decimal — sub-µs phase means round to a useless 0
      // as integers, and readers should not do the division by hand.
      char mean[32];
      std::snprintf(mean, sizeof(mean), "%.1f", s.mean());
      // Share of round: the span's mean over the mean round, so a
      // straggling phase reads at a glance. Every phase span nests in its
      // lane's round span, so no share exceeds 100%. Only round-loop spans
      // get one.
      char share[16];
      if (s.name.rfind("phase.", 0) == 0 && round_mean > 0) {
        std::snprintf(share, sizeof(share), "%.1f%%",
                      100.0 * s.mean() / round_mean);
      } else {
        std::snprintf(share, sizeof(share), "-");
      }
      out << "  " << std::left << std::setw(static_cast<int>(width)) << s.name
          << std::right << std::setw(10) << s.count << std::setw(12) << s.sum
          << std::setw(12) << (s.count == 0 ? 0 : s.min) << std::setw(12)
          << s.max << std::setw(12) << mean << std::setw(9) << share << "\n";
    }
  }
  // Derived hardware-counter ratios, when a live perf group recorded them
  // (absent under fallback — the counters themselves are never registered).
  const std::vector<PhaseRatios> ratios = derived_perf(snaps);
  if (!ratios.empty()) {
    out << "  " << std::left << std::setw(static_cast<int>(width))
        << "(derived)" << std::right << std::setw(14) << "ipc"
        << std::setw(16) << "cache-miss%" << "\n";
  }
  for (const PhaseRatios& r : ratios) {
    char ipc[32];
    std::snprintf(ipc, sizeof(ipc), "%.3f", r.ipc);
    char miss[32];
    if (r.cache_miss_rate) {
      std::snprintf(miss, sizeof(miss), "%.2f%%", 100.0 * *r.cache_miss_rate);
    } else {
      std::snprintf(miss, sizeof(miss), "-");
    }
    out << "  " << std::left << std::setw(static_cast<int>(width))
        << ("perf." + r.phase) << std::right << std::setw(14) << ipc
        << std::setw(16) << miss << "\n";
  }
  out << "---------------------------------------------------------------\n";
}

RoundInstruments RoundInstruments::create(
    Metrics& m, std::initializer_list<Phase> phases) {
  RoundInstruments r;
  r.live_nodes = m.counter("rounds.live_nodes");
  r.messages = m.counter("rounds.messages");
  r.payload_words = m.counter("rounds.payload_words");
  r.rounds_executed = m.gauge("rounds.executed");
  for (const Phase p : phases) {
    r.us(p) = m.histogram(std::string("phase.") + phase_name(p) + ".us");
  }
  return r;
}

}  // namespace ds::obs
