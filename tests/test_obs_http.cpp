// Tests for the live-introspection stack (PR 8): Prometheus exposition
// conformance (in-test parser: TYPE lines, family uniqueness, counter
// monotonicity between scrapes), the embedded HTTP server's endpoints and
// error paths, /healthz flipping to 503 after a collective abort in a
// loopback TCP fleet, /status served concurrently with a live 4-rank run,
// the flight-recorder ring's eviction + dropped-counter semantics, and
// absence of torn reads from the seqlock SnapshotPublisher under a
// hammering reader thread (the TSan job runs this file too).

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "determinism_probe.hpp"
#include "graph/generators.hpp"
#include "net/loopback.hpp"
#include "net/socket.hpp"
#include "net/tcp_network.hpp"
#include "obs/exposition.hpp"
#include "obs/http_server.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace ds::obs {
namespace {

using probes::probe_factory;

// ---- Minimal HTTP/1.1 client ---------------------------------------------

struct HttpResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

HttpResponse http_request(std::uint16_t port, const std::string& method,
                          const std::string& path) {
  net::Socket s = net::connect_to(net::Endpoint{"127.0.0.1", port}, 2000);
  net::set_io_timeouts(s.fd(), 2000);
  const std::string req = method + " " + path +
                          " HTTP/1.1\r\nHost: test\r\nConnection: close"
                          "\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(s.fd(), req.data() + sent, req.size() - sent, 0);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(s.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // EOF: Connection: close
    }
  }
  HttpResponse r;
  const std::size_t sp = raw.find(' ');
  if (sp != std::string::npos) r.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    r.headers = raw.substr(0, split);
    r.body = raw.substr(split + 4);
  }
  return r;
}

HttpResponse http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET", path);
}

// ---- Prometheus text exposition 0.0.4 conformance parser -----------------

struct Exposition {
  std::map<std::string, std::string> families;  ///< family -> declared type
  std::map<std::string, double> samples;        ///< name{labels} -> value
  std::vector<std::string> errors;
};

/// Parses and validates one scrape: every `# TYPE` family unique, every
/// sample attributable to a declared family (summary families own their
/// `_sum` / `_count` series), every value numeric.
Exposition parse_exposition(const std::string& text) {
  Exposition e;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family;
      std::string type;
      fields >> family >> type;
      if (family.empty() ||
          (type != "counter" && type != "gauge" && type != "summary")) {
        e.errors.push_back("malformed TYPE line: " + line);
      } else if (!e.families.emplace(family, type).second) {
        e.errors.push_back("duplicate family: " + family);
      }
      continue;
    }
    if (line[0] == '#') continue;  // HELP or comment
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      e.errors.push_back("malformed sample line: " + line);
      continue;
    }
    const std::string key = line.substr(0, sp);
    const std::string name = key.substr(0, key.find('{'));
    try {
      e.samples[key] = std::stod(line.substr(sp + 1));
    } catch (...) {
      e.errors.push_back("non-numeric value: " + line);
      continue;
    }
    // Attribute the sample to a family.
    std::string family = name;
    if (e.families.count(family) == 0) {
      for (const char* suffix : {"_sum", "_count"}) {
        const std::string s = suffix;
        if (name.size() > s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0) {
          const std::string base = name.substr(0, name.size() - s.size());
          const auto it = e.families.find(base);
          if (it != e.families.end() && it->second == "summary") family = base;
        }
      }
    }
    if (e.families.count(family) == 0) {
      e.errors.push_back("sample without TYPE: " + name);
    }
  }
  return e;
}

// ---- Exposition conformance ----------------------------------------------

TEST(Exposition, ConformsAndCountersAreMonotoneBetweenScrapes) {
  Recorder rec;
  Metrics& m = rec.metrics();
  Counter messages = m.counter("rounds.messages");
  Counter tx0 = m.counter("tcp.tx.frames", /*slots=*/4, /*slot=*/0);
  Counter tx2 = m.counter("tcp.tx.frames", /*slots=*/4, /*slot=*/2);
  Gauge rounds_g = m.gauge("rounds.executed");
  Histogram round_us = m.histogram("phase.round.us");
  // A negative clock offset must render as a signed sample, not 2^64-250.
  m.gauge("clock.offset.rank1.us")
      .set(static_cast<std::uint64_t>(std::int64_t{-250}));

  SnapshotPublisher pub;
  rec.set_publisher(&pub);
  messages.add(7);
  tx0.add(3);
  tx2.add(5);
  rounds_g.set(3);
  round_us.record(120);
  rec.publish_round(3);

  std::ostringstream first;
  write_prometheus(first, pub);
  const Exposition e1 = parse_exposition(first.str());
  EXPECT_TRUE(e1.errors.empty()) << e1.errors.front();
  EXPECT_EQ(e1.families.at("distsplit_rounds_total"), "counter");
  EXPECT_EQ(e1.samples.at("distsplit_rounds_total"), 3.0);
  EXPECT_EQ(e1.families.at("distsplit_rounds_messages_total"), "counter");
  EXPECT_EQ(e1.samples.at("distsplit_rounds_messages_total"), 7.0);
  // Multi-slot counters keep one labeled series per slot.
  EXPECT_EQ(e1.samples.at("distsplit_tcp_tx_frames_total{slot=\"2\"}"), 5.0);
  EXPECT_EQ(e1.samples.at("distsplit_tcp_tx_frames_total{slot=\"1\"}"), 0.0);
  // Histograms expose summary sum/count plus min/max gauge families.
  EXPECT_EQ(e1.families.at("distsplit_phase_round_us"), "summary");
  EXPECT_EQ(e1.samples.at("distsplit_phase_round_us_sum"), 120.0);
  EXPECT_EQ(e1.samples.at("distsplit_phase_round_us_count"), 1.0);
  EXPECT_EQ(e1.samples.at("distsplit_phase_round_us_max"), 120.0);
  EXPECT_EQ(e1.samples.at("distsplit_clock_offset_rank1_us"), -250.0);

  messages.add(4);
  round_us.record(80);
  rec.publish_round(5);
  std::ostringstream second;
  write_prometheus(second, pub);
  const Exposition e2 = parse_exposition(second.str());
  EXPECT_TRUE(e2.errors.empty()) << e2.errors.front();
  // Counter monotonicity: no counter sample may move backwards.
  for (const auto& [key, value] : e1.samples) {
    const std::string name = key.substr(0, key.find('{'));
    const auto fam = e2.families.find(name);
    if (fam == e2.families.end() || fam->second != "counter") continue;
    ASSERT_TRUE(e2.samples.count(key)) << key;
    EXPECT_GE(e2.samples.at(key), value) << key;
  }
  EXPECT_EQ(e2.samples.at("distsplit_rounds_total"), 5.0);
  EXPECT_EQ(e2.samples.at("distsplit_rounds_messages_total"), 11.0);
}

TEST(Exposition, DerivesPerPhaseIpcAndCacheMissFamilies) {
  Recorder rec;
  Metrics& m = rec.metrics();
  m.counter("perf.send.cycles").add(1000);
  m.counter("perf.send.instructions").add(2500);
  m.counter("perf.send.cache_refs").add(200);
  m.counter("perf.send.cache_misses").add(50);
  // A phase with no cache traffic must not synthesize a 0/0 rate sample.
  m.counter("perf.barrier.cycles").add(10);
  m.counter("perf.barrier.instructions").add(5);
  SnapshotPublisher pub;
  rec.set_publisher(&pub);
  rec.publish_round(1);

  std::ostringstream out;
  write_prometheus(out, pub);
  const Exposition e = parse_exposition(out.str());
  EXPECT_TRUE(e.errors.empty()) << e.errors.front();
  EXPECT_EQ(e.families.at("distsplit_phase_ipc"), "gauge");
  EXPECT_EQ(e.samples.at("distsplit_phase_ipc{phase=\"send\"}"), 2.5);
  EXPECT_EQ(e.samples.at("distsplit_phase_ipc{phase=\"barrier\"}"), 0.5);
  EXPECT_EQ(e.families.at("distsplit_phase_cache_miss_rate"), "gauge");
  EXPECT_EQ(e.samples.at("distsplit_phase_cache_miss_rate{phase=\"send\"}"),
            0.25);
  EXPECT_EQ(e.samples.count("distsplit_phase_cache_miss_rate{phase="
                            "\"barrier\"}"),
            0u);
}

TEST(Exposition, FallbackRunSynthesizesNoHardwareFamilies) {
  Recorder rec;
  Metrics& m = rec.metrics();
  // What a degraded run registers: the availability gauge and the software
  // fallback, no cycles/instructions names at all.
  m.gauge("perf.hardware").set(0);
  m.counter("perf.send.task_clock_ns").add(123456);
  SnapshotPublisher pub;
  rec.set_publisher(&pub);
  rec.publish_round(1);

  std::ostringstream out;
  write_prometheus(out, pub);
  const Exposition e = parse_exposition(out.str());
  EXPECT_TRUE(e.errors.empty()) << e.errors.front();
  EXPECT_EQ(e.samples.at("distsplit_perf_hardware"), 0.0);
  EXPECT_EQ(e.families.count("distsplit_phase_ipc"), 0u);
  EXPECT_EQ(e.families.count("distsplit_phase_cache_miss_rate"), 0u);
}

// ---- HTTP server endpoints -----------------------------------------------

TEST(HttpServer, ServesAllEndpointsOnAnEphemeralPort) {
  Recorder rec;
  Counter c = rec.metrics().counter("rounds.messages");
  SnapshotPublisher pub;
  pub.set_info({{"algo", "test"}, {"runtime", "unit <&> test"}});
  rec.set_publisher(&pub);
  c.add(1);
  rec.publish_round(1);

  HttpServer server(pub, /*port=*/0);
  ASSERT_NE(server.port(), 0);  // kernel-assigned, read back

  const HttpResponse metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("version=0.0.4"), std::string::npos);
  const Exposition e = parse_exposition(metrics.body);
  EXPECT_TRUE(e.errors.empty()) << e.errors.front();
  EXPECT_EQ(e.samples.at("distsplit_rounds_total"), 1.0);

  const HttpResponse status = http_get(server.port(), "/status");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.headers.find("text/html"), std::string::npos);
  EXPECT_NE(status.body.find("rounds completed"), std::string::npos);
  // The run-context values are HTML-escaped.
  EXPECT_NE(status.body.find("unit &lt;&amp;&gt; test"), std::string::npos);

  const HttpResponse health = http_get(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "idle\n");

  const HttpResponse snapshot = http_get(server.port(), "/api/v1/snapshot");
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_NE(snapshot.headers.find("application/json"), std::string::npos);
  EXPECT_NE(snapshot.body.find("\"context\""), std::string::npos);
  EXPECT_NE(snapshot.body.find("\"rounds.messages\": 1"), std::string::npos);

  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_EQ(http_request(server.port(), "POST", "/metrics").status, 405);
  EXPECT_GE(server.requests_served(), 6u);
}

TEST(HttpServer, ProfileEndpointServesFoldedStacksWhenAttached) {
  SnapshotPublisher pub;
  HttpServer server(pub, /*port=*/0);

  // Without a profile source the endpoint 404s with a hint, not an empty
  // 200 a scraper would mistake for "no samples yet".
  const HttpResponse off = http_get(server.port(), "/api/v1/profile");
  EXPECT_EQ(off.status, 404);
  EXPECT_NE(off.body.find("--profile"), std::string::npos);

  pub.set_profile_source([] { return std::string("rank:0;main;work 3\n"); });
  const HttpResponse on = http_get(server.port(), "/api/v1/profile");
  EXPECT_EQ(on.status, 200);
  EXPECT_NE(on.headers.find("text/plain"), std::string::npos);
  EXPECT_EQ(on.body, "rank:0;main;work 3\n");
}

TEST(HttpServer, HealthTracksPublisherLifecycle) {
  SnapshotPublisher pub;
  HttpServer server(pub, 0);
  EXPECT_EQ(http_get(server.port(), "/healthz").status, 200);
  pub.run_started("probe");
  EXPECT_EQ(http_get(server.port(), "/healthz").body, "running\n");
  pub.run_finished(/*ok=*/false);
  const HttpResponse aborted = http_get(server.port(), "/healthz");
  EXPECT_EQ(aborted.status, 503);
  EXPECT_EQ(aborted.body, "aborted\n");
}

TEST(HttpServer, HealthzReports503WhileDraining) {
  // A draining daemon still answers, but load balancers must stop routing
  // new submissions to it — same signal as aborted, different body.
  SnapshotPublisher pub;
  HttpServer server(pub, 0);
  pub.set_health(Health::kDraining);
  const HttpResponse draining = http_get(server.port(), "/healthz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");
}

TEST(HttpServer, RunsEndpointExposesServedRunHistory) {
  constexpr auto npos = std::string::npos;
  SnapshotPublisher pub;
  HttpServer server(pub, 0);

  // Before any run: a valid JSON document with an empty history.
  const HttpResponse empty = http_get(server.port(), "/api/v1/runs");
  EXPECT_EQ(empty.status, 200);
  EXPECT_NE(empty.headers.find("application/json"), npos);
  EXPECT_NE(empty.body.find("\"health\": \"idle\""), npos) << empty.body;
  EXPECT_NE(empty.body.find("\"runs\": []"), npos) << empty.body;

  // Two finished runs — one serve-style (digests attached), one plain.
  pub.run_started("mis seed=7", /*params_digest=*/0x00ff00ff00ff00ffull);
  pub.run_finished(/*ok=*/true, /*output_digest=*/0xabcdef0123456789ull);
  pub.run_started("color seed=3");
  pub.run_finished(/*ok=*/false);

  const HttpResponse runs = http_get(server.port(), "/api/v1/runs");
  EXPECT_EQ(runs.status, 200);
  const std::string& body = runs.body;
  // Monotone ids, oldest-first, with the serve provenance fields.
  EXPECT_NE(body.find("\"id\": 1"), npos) << body;
  EXPECT_NE(body.find("\"spec\": \"mis seed=7\""), npos) << body;
  EXPECT_NE(body.find("\"params_digest\": \"00ff00ff00ff00ff\""), npos)
      << body;
  EXPECT_NE(body.find("\"output_digest\": \"abcdef0123456789\""), npos)
      << body;
  EXPECT_NE(body.find("\"ok\": true"), npos) << body;
  EXPECT_NE(body.find("\"id\": 2"), npos) << body;
  EXPECT_NE(body.find("\"spec\": \"color seed=3\""), npos) << body;
  EXPECT_NE(body.find("\"ok\": false"), npos) << body;
  // Zero digests render as empty strings, not "0000...".
  EXPECT_NE(body.find("\"params_digest\": \"\""), npos) << body;
  EXPECT_LT(body.find("\"id\": 1"), body.find("\"id\": 2"));

  // The discoverability hint mentions the endpoint.
  EXPECT_NE(http_get(server.port(), "/nope").body.find("/api/v1/runs"), npos);
}

// ---- Loopback fleets -----------------------------------------------------

net::TcpOptions test_options() {
  net::TcpOptions opts;
  opts.handshake_timeout_ms = 20000;
  opts.round_timeout_ms = 30000;
  return opts;
}

/// Connects loopback rank `lr`'s fleet with the test budgets.
net::TcpTransport connect(net::LoopbackRank&& lr) {
  return net::TcpTransport(lr.rank, lr.hosts, {}, test_options(),
                           std::move(lr.listen));
}

TEST(HttpServer, HealthzFlipsTo503AfterCollectiveAbort) {
  const auto g = graph::gen::cycle(16);
  // Exit-code checks, not EXPECT: a gtest failure on a forked child rank
  // would die silently with the process.
  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        if (rank != 0) {
          net::TcpTransport transport = connect(std::move(lr));
          net::TcpNetwork net(g, transport);
          try {
            net.run(probe_factory(), {}, local::IdStrategy::kSequential, 1, 2);
            return 70;  // max_rounds must abort the fleet
          } catch (const CheckError&) {
            return 0;
          }
        }
        Recorder rec;
        SnapshotPublisher pub;
        rec.set_publisher(&pub);
        HttpServer server(pub, 0);
        pub.run_started("probe");
        net::TcpTransport transport = connect(std::move(lr));
        net::TcpNetwork net(g, transport);
        net.set_recorder(&rec);
        if (http_get(server.port(), "/healthz").status != 200) return 71;
        try {
          net.run(probe_factory(), {}, local::IdStrategy::kSequential, 1, 2);
          return 72;  // max_rounds must abort the fleet
        } catch (const CheckError&) {
          // The transport's abort() flipped the publisher before the
          // exception unwound to us — no run_finished call needed.
          const HttpResponse health = http_get(server.port(), "/healthz");
          if (health.status != 503) return 73;
          if (health.body != "aborted\n") return 74;
          return 0;
        }
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

TEST(HttpServer, StatusServedConcurrentlyWithLiveFourRankRun) {
  Rng rng(3);
  const auto g = graph::gen::gnp(120, 0.06, rng);
  const net::LoopbackReport report = net::run_loopback_ranks(
      4, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        if (rank != 0) {
          Recorder rec;
          net::TcpTransport transport = connect(std::move(lr));
          net::TcpNetwork net(g, transport);
          net.set_recorder(&rec);
          net.run(probe_factory(), {}, local::IdStrategy::kSequential, 7, 100);
          return 0;
        }
        Recorder rec;
        SnapshotPublisher pub;
        rec.set_publisher(&pub);
        HttpServer server(pub, 0);
        pub.run_started("probe");

        // Hammer the endpoints from a second thread for the whole run —
        // the server must serve consistent pages while the round loop
        // publishes at every round boundary.
        std::atomic<bool> stop{false};
        std::atomic<int> bad{0};
        std::atomic<int> served{0};
        std::atomic<int> ok{0};
        std::thread hammer([&] {
          while (!stop.load(std::memory_order_acquire)) {
            for (const char* path : {"/status", "/metrics"}) {
              const HttpResponse r = http_get(server.port(), path);
              if (r.status != 200) {
                bad.fetch_add(1);
              } else {
                ok.fetch_add(1);
              }
              served.fetch_add(1);
            }
          }
        });
        // The run may be shorter than one scrape: start it only once the
        // hammer is serving, so scrapes overlap it. The deadline stays well
        // inside the peers' handshake timeout.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (ok.load() == 0) {
          if (std::chrono::steady_clock::now() > deadline) {
            stop.store(true, std::memory_order_release);
            hammer.join();
            return 96;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        net::TcpTransport transport = connect(std::move(lr));
        net::TcpNetwork net(g, transport);
        net.set_recorder(&rec);
        net.run(probe_factory(), {}, local::IdStrategy::kSequential, 7, 100);
        pub.run_finished(/*ok=*/true);
        stop.store(true, std::memory_order_release);
        hammer.join();

        if (bad.load() != 0) return 90;
        if (served.load() == 0) return 91;
        // The final scrape carries the fleet-merged snapshot: conformant
        // exposition, an advanced round counter, and per-peer tx series.
        const HttpResponse metrics = http_get(server.port(), "/metrics");
        const Exposition e = parse_exposition(metrics.body);
        if (!e.errors.empty()) return 92;
        if (e.samples.at("distsplit_rounds_total") < 1.0) return 93;
        if (e.samples.count("distsplit_tcp_tx_frames_total{slot=\"1\"}") == 0) {
          return 94;
        }
        if (http_get(server.port(), "/healthz").body != "completed\n") {
          return 95;
        }
        return 0;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
}

// ---- Flight-recorder ring ------------------------------------------------

TEST(Recorder, FlightRecorderEvictsOldestFirstAndCountsDrops) {
  Recorder rec;
  rec.set_event_capacity(4);
  for (std::uint64_t r = 0; r < 10; ++r) {
    rec.add_span(Phase::kRound, r, /*ts_us=*/r * 10, /*dur_us=*/1);
  }
  EXPECT_EQ(rec.events_dropped(), 6u);
  const std::vector<TraceEvent> ordered = rec.ordered_events();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ordered[i].round, 6u + i) << i;  // oldest-first, rounds 6..9
  }
  // The drop count is a real metric, so it drains/merges fleet-wide.
  bool found = false;
  for (const MetricSnapshot& s : rec.metrics().snapshot()) {
    if (s.name == "obs.events.dropped") {
      EXPECT_EQ(s.value(), 6u);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Shrinking evicts oldest-first and counts the evictions too.
  rec.set_event_capacity(2);
  EXPECT_EQ(rec.events_dropped(), 8u);
  const std::vector<TraceEvent> shrunk = rec.ordered_events();
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(shrunk[0].round, 8u);
  EXPECT_EQ(shrunk[1].round, 9u);

  // Growing keeps the retained events and stops evicting.
  rec.set_event_capacity(8);
  rec.add_span(Phase::kRound, 10, 100, 1);
  EXPECT_EQ(rec.events_dropped(), 8u);
  const std::vector<TraceEvent> grown = rec.ordered_events();
  ASSERT_EQ(grown.size(), 3u);
  EXPECT_EQ(grown[0].round, 8u);
  EXPECT_EQ(grown[2].round, 10u);

  EXPECT_THROW(rec.set_event_capacity(0), CheckError);

  // The trace export notes the truncation in its metadata.
  std::ostringstream trace;
  rec.write_trace_json(trace);
  EXPECT_NE(trace.str().find("\"truncated\": true"), std::string::npos);
  EXPECT_NE(trace.str().find("\"dropped_events\": 8"), std::string::npos);
}

// ---- Seqlock publisher under concurrency ---------------------------------

TEST(SnapshotPublisher, NoTornReadsUnderHammeringReader) {
  Metrics m;
  Counter a = m.counter("a");
  Counter b = m.counter("b");
  SnapshotPublisher pub;
  pub.publish(m, 0);

  // Invariant maintained by the writer: a == b == rounds at every publish.
  // A torn read would surface as a snapshot violating it.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    PublishedSnapshot snap;
    while (!stop.load(std::memory_order_acquire)) {
      if (!pub.read(snap)) continue;
      std::uint64_t va = 0;
      std::uint64_t vb = 0;
      for (const PublishedMetric& pm : snap.metrics) {
        if (pm.name == "a") va = pm.aggregate().value();
        if (pm.name == "b") vb = pm.aggregate().value();
      }
      if (va != vb || va != snap.rounds) violations.fetch_add(1);
      reads.fetch_add(1);
    }
  });

  // Publish until the reader has materialized plenty of snapshots, so the
  // two threads genuinely overlap (a fixed iteration count can finish
  // before the reader thread is even scheduled).
  constexpr std::uint64_t kMinReads = 2000;
  std::uint64_t iterations = 0;
  while (reads.load(std::memory_order_relaxed) < kMinReads) {
    ++iterations;
    a.add(1);
    b.add(1);
    pub.publish(m, iterations);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(reads.load(), kMinReads);
  EXPECT_EQ(pub.publishes(), iterations + 1);

  // The final snapshot is exactly the last publish.
  PublishedSnapshot snap;
  ASSERT_TRUE(pub.read(snap));
  EXPECT_EQ(snap.rounds, iterations);
}

// ---- Registration-after-publish guard (debug builds) ---------------------

#ifndef NDEBUG
TEST(Metrics, NewRegistrationAfterSnapshotFails) {
  Metrics m;
  m.counter("pre");
  (void)m.aggregate(0);  // the recorder codec's own read does not seal
  m.counter("mid");
  (void)m.snapshot();  // seals
  m.counter("pre");    // re-find of an existing name stays legal
  EXPECT_THROW(m.counter("post"), CheckError);
}
#endif

}  // namespace
}  // namespace ds::obs
