// Tests for the observability layer (src/obs/): metrics registry
// semantics, the disabled no-op path, the drain/merge codec, trace /
// metrics JSON well-formedness, and — the load-bearing property — that the
// deterministic `rounds.*` counters are bit-identical across the
// sequential executor, thread ranks and TCP ranks for a fixed (graph,
// IdStrategy, seed), and count every run once when one recorder observes
// several distributed runs.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "dist/distributed_network.hpp"
#include "graph/generators.hpp"
#include "local/network.hpp"
#include "mis/mis.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

namespace ds::obs {
namespace {

// ---- Metrics registry ----------------------------------------------------

TEST(Metrics, CounterAggregatesAcrossSlots) {
  Metrics m;
  Counter a = m.counter("c", /*slots=*/3, /*slot=*/0);
  Counter b = m.counter("c", /*slots=*/3, /*slot=*/2);
  a.add(5);
  a.add(7);
  b.add(100);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "c");
  EXPECT_EQ(snap[0].kind, Kind::kCounter);
  EXPECT_EQ(snap[0].value(), 112u);
  EXPECT_EQ(snap[0].count, 3u);  // three add() calls across the slots
}

TEST(Metrics, ReRegistrationGrowsSlotsAndKeepsHandlesValid) {
  Metrics m;
  Counter a = m.counter("c", 1, 0);
  a.add(1);
  // Growing the slot count must not invalidate `a` (cells live in a deque).
  Counter b = m.counter("c", 8, 7);
  a.add(1);
  b.add(40);
  EXPECT_EQ(m.snapshot()[0].value(), 42u);
  EXPECT_EQ(m.num_metrics(), 1u);
}

TEST(Metrics, GaugeKeepsLastSetValueAndMergesByMax) {
  Metrics m;
  Gauge g = m.gauge("g");
  g.set(9);
  g.set(4);
  EXPECT_EQ(m.snapshot()[0].value(), 4u);
  // Merge semantics: deterministic gauges agree across ranks, so max is
  // the identity; a rank that never set one must not pull it to zero.
  MetricSnapshot peer;
  peer.name = "g";
  peer.kind = Kind::kGauge;
  peer.sum = 2;
  peer.count = 1;
  m.merge(peer);
  EXPECT_EQ(m.snapshot()[0].value(), 4u);
}

TEST(Metrics, HistogramTracksCountSumMinMax) {
  Metrics m;
  Histogram h = m.histogram("h");
  h.record(10);
  h.record(3);
  h.record(30);
  const auto s = m.snapshot()[0];
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 43u);
  EXPECT_EQ(s.min, 3u);
  EXPECT_EQ(s.max, 30u);
}

TEST(Metrics, KindMismatchThrows) {
  Metrics m;
  m.counter("x");
  EXPECT_THROW(m.gauge("x"), CheckError);
  EXPECT_THROW(m.histogram("x"), CheckError);
}

TEST(Metrics, DisabledHandlesAreNoOps) {
  // The whole "zero-cost when off" contract: default-constructed handles
  // swallow every operation.
  Counter c;
  Gauge g;
  Histogram h;
  c.add(1);
  g.set(2);
  h.record(3);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
}

// ---- Drain / merge codec -------------------------------------------------

/// The aggregated metric `name` of `rec`.
MetricSnapshot metric(const Recorder& rec, const std::string& name) {
  for (const MetricSnapshot& s : rec.metrics().snapshot()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return MetricSnapshot{};
}

TEST(Recorder, DrainShipsWhatWasRecordedSinceTheMarkAndKeepsLocalState) {
  Recorder rec;
  Counter c = rec.metrics().counter("c");
  Histogram h = rec.metrics().histogram("h");
  Gauge g = rec.metrics().gauge("g");
  Histogram idle = rec.metrics().histogram("idle");
  c.add(11);
  h.record(7);
  g.set(3);
  idle.record(5);
  rec.add_span(Phase::kRound, /*round=*/0, /*ts_us=*/5, /*dur_us=*/9);

  rec.mark();
  c.add(4);
  h.record(2);
  rec.add_span(Phase::kSend, /*round=*/1, /*ts_us=*/20, /*dur_us=*/3);
  const std::vector<std::uint64_t> block = rec.drain_words();

  // Draining leaves the local state intact...
  EXPECT_EQ(metric(rec, "c").value(), 15u);
  EXPECT_EQ(metric(rec, "h").count, 2u);
  EXPECT_EQ(rec.events().size(), 2u);

  // ...and the block carries only what was recorded since the mark:
  // count/sum deltas, histogram min/max and gauges as they stand (an idle
  // histogram ships empty), and the newer span.
  Recorder peer;
  peer.merge_words(block.data(), block.size());
  EXPECT_EQ(metric(peer, "idle").count, 0u);
  EXPECT_EQ(metric(peer, "idle").max, 0u);
  EXPECT_EQ(metric(peer, "c").value(), 4u);
  EXPECT_EQ(metric(peer, "h").count, 1u);
  EXPECT_EQ(metric(peer, "h").sum, 2u);
  EXPECT_EQ(metric(peer, "h").min, 2u);
  EXPECT_EQ(metric(peer, "h").max, 7u);
  EXPECT_EQ(metric(peer, "g").value(), 3u);
  ASSERT_EQ(peer.events().size(), 1u);
  EXPECT_EQ(peer.events()[0].phase, Phase::kSend);
  EXPECT_EQ(peer.events()[0].ts_us, 20u);
  EXPECT_EQ(peer.events()[0].dur_us, 3u);

  // A fresh mark empties the next block; merge stays additive.
  rec.mark();
  const std::vector<std::uint64_t> empty = rec.drain_words();
  peer.merge_words(empty.data(), empty.size());
  peer.merge_words(block.data(), block.size());
  EXPECT_EQ(metric(peer, "c").value(), 8u);
  EXPECT_EQ(metric(peer, "h").count, 2u);
  EXPECT_EQ(peer.events().size(), 2u);
}

TEST(Recorder, DrainOfAWrappedRingShipsTheNewestSpansSinceTheMark) {
  const auto shipped_rounds = [](Recorder& rec) {
    const std::vector<std::uint64_t> block = rec.drain_words();
    Recorder peer;
    peer.merge_words(block.data(), block.size());
    std::vector<std::uint64_t> rounds;
    for (const TraceEvent& e : peer.events()) rounds.push_back(e.round);
    return rounds;
  };
  Recorder rec;
  rec.set_event_capacity(4);
  for (std::uint64_t r = 0; r < 6; ++r) rec.add_span(Phase::kRound, r, r, 1);
  rec.mark();  // the ring has wrapped: rounds 2..5 retained
  rec.add_span(Phase::kRound, 6, 6, 1);
  rec.add_span(Phase::kRound, 7, 7, 1);
  EXPECT_EQ(shipped_rounds(rec), (std::vector<std::uint64_t>{6, 7}));
  // More spans since the mark than the ring holds: the newest survive.
  for (std::uint64_t r = 8; r < 12; ++r) rec.add_span(Phase::kRound, r, r, 1);
  EXPECT_EQ(shipped_rounds(rec),
            (std::vector<std::uint64_t>{8, 9, 10, 11}));
}

TEST(Recorder, MergeRejectsMalformedBlocks) {
  Recorder rec;
  rec.metrics().counter("c").add(1);
  std::vector<std::uint64_t> block = rec.drain_words();

  Recorder target;
  std::vector<std::uint64_t> bad = block;
  bad[0] ^= 1;  // wrong magic
  EXPECT_THROW(target.merge_words(bad.data(), bad.size()), CheckError);
  EXPECT_THROW(target.merge_words(block.data(), block.size() - 1),
               CheckError);
}

// ---- JSON writers --------------------------------------------------------

/// Minimal recursive-descent JSON validator. The repo deliberately has no
/// JSON dependency; "the exporters emit parseable JSON" is the property
/// CI's `python3 -m json.tool` gate relies on, so the test asserts it
/// in-process too.
class JsonValidator {
 public:
  static bool valid(const std::string& text) {
    JsonValidator v(text);
    v.ws();
    if (!v.value()) return false;
    v.ws();
    return v.pos_ == v.text_.size();
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  void ws() {
    while (!eof() && (peek() == ' ' || peek() == '\n' || peek() == '\t' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* s) {
    for (; *s != '\0'; ++s) {
      if (eof() || peek() != *s) return false;
      ++pos_;
    }
    return true;
  }
  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (eof() || peek() != ':') return false;
      ++pos_;
      ws();
      if (!value()) return false;
      ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos_;
    while (!eof() && peek() != '"') {
      if (peek() == '\\') {
        ++pos_;
        if (eof()) return false;
      }
      ++pos_;
    }
    if (eof()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() &&
           (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
            peek() == '.' || peek() == 'e' || peek() == 'E' ||
            peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonValidator, SanityOnHandWrittenCases) {
  EXPECT_TRUE(JsonValidator::valid(R"({"a": [1, 2.5, "x\"y"], "b": {}})"));
  EXPECT_TRUE(JsonValidator::valid("[]"));
  EXPECT_FALSE(JsonValidator::valid("{"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a": 1,})"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a": 1} trailing)"));
}

TEST(MetricsJson, RecorderAndPublishedSnapshotRenderOneShape) {
  Recorder rec;
  rec.metrics().counter("peer\"count", 2, 1).add(5);
  rec.metrics().gauge("clock.offset.rank1.us").set(
      static_cast<std::uint64_t>(std::int64_t{-42}));
  rec.metrics().histogram("phase.send.us").record(3);
  rec.metrics().histogram("phase.ship.us");
  SnapshotPublisher pub;
  pub.set_info({{"algo", "mis"}});
  pub.publish(rec.metrics(), 7);

  std::ostringstream published;
  write_snapshot_json(published, pub);
  std::vector<std::pair<std::string, std::string>> context = pub.info();
  context.emplace_back("health", health_name(pub.health()));
  context.emplace_back("rounds", "7");
  context.emplace_back("publishes", "1");
  std::ostringstream recorded;
  rec.write_metrics_json(recorded, context);
  std::ostringstream rendered;
  write_metrics_json(rendered, context, rec.metrics().snapshot());

  EXPECT_EQ(recorded.str(), published.str());
  EXPECT_EQ(rendered.str(), published.str());
  EXPECT_TRUE(JsonValidator::valid(published.str())) << published.str();
  EXPECT_NE(published.str().find("\"clock.offset.rank1.us\": -42"),
            std::string::npos);
}

// ---- Instrumented runs ---------------------------------------------------

const algo::Spec& mis_spec() { return algo::find("mis"); }

algo::RunContext context_for(const graph::Graph& g, Recorder* rec,
                             const runtime::RuntimeConfig& config) {
  algo::RunContext ctx;
  ctx.graph = &g;
  ctx.seed = 9;
  ctx.params = algo::Params::parse(mis_spec().params, {});
  ctx.factory = runtime::make_executor_factory(config, {}, rec);
  ctx.sequential_runtime = runtime::is_sequential(config);
  ctx.recorder = rec;
  return ctx;
}

/// The deterministic counter totals of one instrumented run, keyed by name.
std::map<std::string, std::uint64_t> deterministic_counters(
    const std::vector<MetricSnapshot>& metrics) {
  std::map<std::string, std::uint64_t> out;
  for (const MetricSnapshot& m : metrics) {
    if (m.name == "rounds.live_nodes" || m.name == "rounds.messages" ||
        m.name == "rounds.payload_words" || m.name == "rounds.executed") {
      out[m.name] = m.value();
    }
  }
  return out;
}

TEST(Recorder, SequentialRunEmitsSpansAndValidJson) {
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(60, 0.12, rng);
  Recorder rec;
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, &rec, {}));
  EXPECT_TRUE(result.verified);
  EXPECT_FALSE(result.metrics.empty());
  EXPECT_FALSE(rec.events().empty());

  // One kRound span per executed round, timestamps monotone per phase.
  std::size_t round_spans = 0;
  std::uint64_t last_ts = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase == Phase::kRound) {
      ++round_spans;
      EXPECT_GE(e.ts_us, last_ts);
      last_ts = e.ts_us;
    }
  }
  EXPECT_EQ(round_spans, result.executed_rounds);

  std::ostringstream trace;
  rec.write_trace_json(trace);
  EXPECT_TRUE(JsonValidator::valid(trace.str())) << trace.str();
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);

  std::ostringstream metrics;
  rec.write_metrics_json(metrics, {{"algo", "mis"}, {"seed", "9"}});
  EXPECT_TRUE(JsonValidator::valid(metrics.str())) << metrics.str();
  EXPECT_NE(metrics.str().find("\"rounds.messages\""), std::string::npos);

  std::ostringstream table;
  rec.write_stats_table(table);
  EXPECT_NE(table.str().find("rounds.messages"), std::string::npos);
}

TEST(Recorder, ParallelStatsShowOnlyRecordedPhasesWithinTheRound) {
  // Thread ranks run the rank loop, so the table shows exactly its six
  // phases — no all-zero rows — and every phase nests in its lane's round.
  const graph::Graph g = graph::gen::torus(64, 64);
  Recorder rec;
  runtime::RuntimeConfig config;
  config.kind = runtime::RuntimeKind::kParallel;
  config.threads = 4;
  algo::RunContext ctx = context_for(g, &rec, config);
  ctx.params = algo::Params::parse(algo::find("color").params, {});
  ASSERT_TRUE(algo::execute(algo::find("color"), ctx).verified);

  std::ostringstream table;
  rec.write_stats_table(table);
  std::istringstream lines(table.str());
  std::string line;
  std::set<std::string> phase_rows;
  while (std::getline(lines, line)) {
    std::istringstream row(line);
    std::string name;
    row >> name;
    if (name.rfind("phase.", 0) != 0) continue;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0;
    std::string share;
    row >> count >> sum >> min >> max >> mean >> share;
    phase_rows.insert(name);
    EXPECT_GT(count, 0u) << "all-zero row: " << line;
    ASSERT_FALSE(share.empty()) << line;
    ASSERT_EQ(share.back(), '%') << line;
    EXPECT_LE(std::stod(share), 100.0) << line;
  }
  const std::set<std::string> expected = {
      "phase.round.us", "phase.send.us",  "phase.ship.us",
      "phase.barrier.us", "phase.patch.us", "phase.receive.us"};
  EXPECT_EQ(phase_rows, expected) << table.str();
}

TEST(Recorder, ParallelRunLanesShareOneTimebase) {
  // Thread ranks 1..3 record on rank 0's clock. Every rank's round r
  // contains the release of that round's ship barrier, so each lane's round
  // span overlaps rank 0's for the same round (1 us slack for the
  // microsecond truncation). A lane whose clock started at the run would
  // sit the 50 ms this recorder lived before it earlier.
  const graph::Graph g = graph::gen::torus(64, 64);
  Recorder rec;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  runtime::RuntimeConfig config;
  config.kind = runtime::RuntimeKind::kParallel;
  config.threads = 4;
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, &rec, config));
  ASSERT_TRUE(result.verified);

  std::map<std::pair<std::uint32_t, std::uint64_t>, TraceEvent> rounds;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase == Phase::kRound) rounds[{e.lane, e.round}] = e;
  }
  ASSERT_EQ(rounds.size(), 4 * result.executed_rounds);
  for (std::uint64_t r = 0; r < result.executed_rounds; ++r) {
    const TraceEvent& rank0 = rounds.at({0, r});
    for (std::uint32_t lane = 1; lane < 4; ++lane) {
      const TraceEvent& e = rounds.at({lane, r});
      EXPECT_LE(e.ts_us, rank0.ts_us + rank0.dur_us + 1)
          << "lane " << lane << " round " << r;
      EXPECT_LE(rank0.ts_us, e.ts_us + e.dur_us + 1)
          << "lane " << lane << " round " << r;
    }
  }
}

TEST(Recorder, ThreadRankRunHasOneLanePerRankAndMonotoneTimestamps) {
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(60, 0.12, rng);
  Recorder rec;
  runtime::RuntimeConfig config;
  config.kind = runtime::RuntimeKind::kParallel;
  config.threads = 2;
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, &rec, config));
  EXPECT_TRUE(result.verified);

  // Both ranks' drained blocks were merged: every lane present, and
  // within each (lane, phase) track the timestamps are monotone (that is
  // what makes the Perfetto rendering honest).
  std::map<std::uint32_t, std::size_t> spans_per_lane;
  std::map<std::pair<std::uint32_t, Phase>, std::uint64_t> last_ts;
  for (const TraceEvent& e : rec.events()) {
    ++spans_per_lane[e.lane];
    auto [it, inserted] = last_ts.try_emplace({e.lane, e.phase}, e.ts_us);
    if (!inserted) {
      EXPECT_GE(e.ts_us, it->second)
          << "lane " << e.lane << " phase " << phase_name(e.phase);
      it->second = e.ts_us;
    }
  }
  ASSERT_EQ(spans_per_lane.size(), 2u);
  EXPECT_GT(spans_per_lane[0], 0u);
  EXPECT_GT(spans_per_lane[1], 0u);

  std::ostringstream trace;
  rec.write_trace_json(trace);
  EXPECT_TRUE(JsonValidator::valid(trace.str()));
}

// ---- Cross-runtime determinism -------------------------------------------

TEST(Conformance, DeterministicCountersIdenticalAcrossRuntimes) {
  Rng rng(11);
  const std::vector<std::pair<std::string, graph::Graph>> instances = {
      {"gnp", graph::gen::gnp(60, 0.12, rng)},
      {"torus", graph::gen::torus(7, 6)},
  };
  for (const auto& [label, g] : instances) {
    Recorder seq_rec;
    const algo::Result expected =
        algo::execute(mis_spec(), context_for(g, &seq_rec, {}));
    const auto want = deterministic_counters(expected.metrics);
    ASSERT_EQ(want.size(), 4u) << label;
    EXPECT_GT(want.at("rounds.messages"), 0u) << label;

    for (const std::size_t threads : {2u, 4u}) {
      runtime::RuntimeConfig config;
      config.kind = runtime::RuntimeKind::kParallel;
      config.threads = threads;
      Recorder rec;
      const algo::Result got =
          algo::execute(mis_spec(), context_for(g, &rec, config));
      EXPECT_EQ(deterministic_counters(got.metrics), want)
          << label << "/threads=" << threads;
    }

    // TCP loopback fleet: exit-code checks, not EXPECT — a gtest failure
    // on a forked child rank would die silently with the process.
    net::TcpOptions topts;
    topts.handshake_timeout_ms = 20000;
    topts.round_timeout_ms = 30000;
    const graph::Graph& graph_ref = g;
    const net::LoopbackReport report = net::run_loopback_ranks(
        2, [&](net::LoopbackRank&& lr) -> int {
          net::TcpTransport transport(lr.rank, lr.hosts, {}, topts,
                                      std::move(lr.listen));
          Recorder rec;
          algo::RunContext ctx;
          ctx.graph = &graph_ref;
          ctx.seed = 9;
          ctx.params = algo::Params::parse(mis_spec().params, {});
          ctx.sequential_runtime = false;
          ctx.recorder = &rec;
          ctx.factory = [&](const graph::Graph& fg) {
            auto exec = std::make_shared<net::TcpNetwork>(fg, transport);
            exec->set_recorder(&rec);
            return exec;
          };
          const algo::Result got = algo::execute(mis_spec(), ctx);
          if (!got.verified) return 3;
          if (got.output_words != expected.output_words) return 4;
          if (deterministic_counters(got.metrics) != want) return 5;
          // The merged trace must have one lane per rank.
          bool lane0 = false;
          bool lane1 = false;
          for (const TraceEvent& e : rec.events()) {
            if (e.lane == 0) lane0 = true;
            if (e.lane == 1) lane1 = true;
          }
          if (!lane0 || !lane1) return 6;
          return 0;
        });
    EXPECT_TRUE(report.all_ok()) << label;
  }
}

// ---- Fleet totals over repeated runs --------------------------------------

/// `rounds.live_nodes` of `rec` (0 when never registered).
std::uint64_t live_nodes(const Recorder& rec) {
  for (const MetricSnapshot& s : rec.metrics().snapshot()) {
    if (s.name == "rounds.live_nodes") return s.value();
  }
  return 0;
}

/// Luby at seed 5 on the 32x32 torus: one sequential run's live nodes.
std::uint64_t luby_live_nodes(const graph::Graph& g) {
  local::Network sequential(g);
  Recorder rec;
  sequential.set_recorder(&rec);
  sequential.run(mis::luby_program_factory(), {},
                 local::IdStrategy::kSequential, 5, 10000);
  return live_nodes(rec);
}

TEST(FleetTotals, ThreadRankExecutorReusedThreeTimesCountsEveryRunOnce) {
  const graph::Graph g = graph::gen::torus(32, 32);
  const std::uint64_t once = luby_live_nodes(g);
  ASSERT_GT(once, 0u);
  dist::DistributedConfig config;
  config.workers = 2;
  dist::DistributedNetwork net(g, config);
  Recorder rec;
  net.set_recorder(&rec);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    net.run(mis::luby_program_factory(), {}, local::IdStrategy::kSequential,
            5, 10000);
    EXPECT_EQ(live_nodes(rec), k * once) << "after run " << k;
  }
}

TEST(FleetTotals, TcpRanksRebuiltThreeTimesCountEveryRunOnce) {
  const graph::Graph g = graph::gen::torus(32, 32);
  const std::uint64_t once = luby_live_nodes(g);
  ASSERT_GT(once, 0u);
  net::TcpOptions topts;
  topts.handshake_timeout_ms = 20000;
  topts.round_timeout_ms = 30000;
  // Exit-code checks: a gtest failure on a forked rank would die silently.
  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        net::TcpTransport transport(lr.rank, lr.hosts, {}, topts,
                                    std::move(lr.listen));
        Recorder rec;
        for (std::uint64_t k = 1; k <= 3; ++k) {
          // A fresh executor per run, all over the one transport.
          net::TcpNetwork tcp(g, transport);
          tcp.set_recorder(&rec);
          tcp.run(mis::luby_program_factory(), {},
                  local::IdStrategy::kSequential, 5, 10000);
          if (live_nodes(rec) != k * once) return static_cast<int>(10 + k);
        }
        return 0;
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " rank1="
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0]);
}

TEST(Conformance, UnobservedRunsStayUnobserved) {
  // A null recorder must leave the result's metrics empty — the disabled
  // path is the default and must not grow state behind the user's back.
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(40, 0.15, rng);
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, nullptr, {}));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.metrics.empty());
}

}  // namespace
}  // namespace ds::obs
