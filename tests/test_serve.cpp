// Tests for the serving subsystem (src/serve/): the request/response codec
// (round-trip + garbage rejection), the bounded request queue's
// never-blocking backpressure, and the resident daemon end to end on
// loopback fleets — sequential and concurrent submissions bit-identical to
// one-shot execution over one standing rendezvous and one resident
// executor, graceful-shutdown drain, and a dead follower flipping the
// fleet unhealthy instead of hanging clients.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "net/loopback.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/request_queue.hpp"
#include "support/check.hpp"

namespace ds::serve {
namespace {

// ---- Codec ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  Request req;
  req.id = 42;
  req.algo = "mis";
  req.seed = 7;
  req.params = {{"max-rounds", "500"}, {"ids", "random"}};
  const std::vector<std::uint64_t> words = encode_request(req);
  const Request back = decode_request(words.data(), words.size());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.algo, "mis");
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.params, req.params);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  Response resp;
  resp.id = 9;
  resp.status = Status::kOk;
  resp.output_digest = 0xdeadbeefcafef00dull;
  resp.rounds = 13;
  resp.wall_us = 250000;
  resp.brief = "mis: mis-size=5 verified=yes";
  const std::vector<std::uint64_t> words = encode_response(resp);
  const Response back = decode_response(words.data(), words.size());
  EXPECT_EQ(back.id, 9u);
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_EQ(back.output_digest, 0xdeadbeefcafef00dull);
  EXPECT_EQ(back.rounds, 13u);
  EXPECT_EQ(back.wall_us, 250000u);
  EXPECT_EQ(back.brief, resp.brief);
}

TEST(ServeProtocol, MalformedPayloadsAreRejected) {
  Request req;
  req.id = 1;
  req.algo = "color";
  req.params = {{"eps", "0.25"}};
  std::vector<std::uint64_t> words = encode_request(req);

  // Empty and truncated payloads.
  EXPECT_THROW(decode_request(words.data(), 0), ds::CheckError);
  EXPECT_THROW(decode_request(words.data(), 2), ds::CheckError);
  EXPECT_THROW(decode_request(words.data(), words.size() - 1), ds::CheckError);

  // A version the codec does not speak.
  std::vector<std::uint64_t> wrong = words;
  wrong[0] = kServeProtocolVersion + 1;
  EXPECT_THROW(decode_request(wrong.data(), wrong.size()), ds::CheckError);

  // A parameter count pointing past the payload.
  std::vector<std::uint64_t> lying = words;
  lying[3] = 1000;
  EXPECT_THROW(decode_request(lying.data(), lying.size()), ds::CheckError);

  // The response decoder survives the same abuse.
  Response resp;
  resp.brief = "ok";
  std::vector<std::uint64_t> rwords = encode_response(resp);
  EXPECT_THROW(decode_response(rwords.data(), 0), ds::CheckError);
  EXPECT_THROW(decode_response(rwords.data(), rwords.size() - 1),
               ds::CheckError);
  rwords[0] = kServeProtocolVersion + 5;
  EXPECT_THROW(decode_response(rwords.data(), rwords.size()), ds::CheckError);
}

TEST(ServeProtocol, ParamsDigestFingerprintsOverrides) {
  const std::uint64_t none = params_digest({});
  const std::uint64_t eps = params_digest({{"eps", "0.1"}});
  const std::uint64_t eps2 = params_digest({{"eps", "0.2"}});
  EXPECT_NE(none, eps);
  EXPECT_NE(eps, eps2);
  EXPECT_EQ(eps, params_digest({{"eps", "0.1"}}));
}

// ---- Request queue -------------------------------------------------------

TEST(RequestQueue, BackpressureRefusesWithoutBlocking) {
  RequestQueue q(2);
  PendingRequest a;
  a.request.id = 1;
  PendingRequest b;
  b.request.id = 2;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_EQ(q.depth(), 2u);

  // The refusal must be immediate — try_push never waits for room.
  PendingRequest c;
  c.request.id = 3;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.try_push(std::move(c)));
  const double refused_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(refused_s, 0.1);
  EXPECT_EQ(q.rejected(), 1u);

  // FIFO order, and room reopens after a pop.
  PendingRequest out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.request.id, 1u);
  PendingRequest d;
  d.request.id = 4;
  EXPECT_TRUE(q.try_push(std::move(d)));

  // close(): no further pushes, but the queued entries stay poppable (the
  // shutdown drain relies on exactly this).
  q.close();
  PendingRequest e;
  EXPECT_FALSE(q.try_push(std::move(e)));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.request.id, 2u);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.request.id, 4u);
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_FALSE(q.pop_wait(out, 10));
}

// ---- Daemon --------------------------------------------------------------

// The sequential reference digest the served runs must match bit-for-bit.
// `b` is the instance of bipartite-input specs.
std::uint64_t one_shot_digest(const graph::Graph& g, const std::string& name,
                              std::uint64_t seed,
                              const graph::BipartiteGraph* b = nullptr) {
  const algo::Spec& spec = algo::find(name);
  algo::RunContext ctx;
  if (spec.input == algo::InputKind::kGeneralGraph) {
    ctx.graph = &g;
  } else {
    ctx.bipartite = b;
  }
  ctx.seed = seed;
  ctx.params = algo::Params::parse(spec.params, {});
  ctx.sequential_runtime = true;
  return algo::execute(spec, ctx).output_digest();
}

Request make_request(std::uint64_t id, const std::string& algo,
                     std::uint64_t seed) {
  Request req;
  req.id = id;
  req.algo = algo;
  req.seed = seed;
  return req;
}

DaemonConfig daemon_config(net::LoopbackRank&& lr, const graph::Graph& g) {
  DaemonConfig config;
  config.rank = lr.rank;
  config.hosts = std::move(lr.hosts);
  config.listen = std::move(lr.listen);
  config.graph = &g;
  config.idle_poll_ms = 50;
  return config;
}

TEST(ServeDaemon, ServesSequentialAndConcurrentSubmissionsBitIdentically) {
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(40, 0.15, rng);
  // Every request runs on the resident instance: 6 requests must come to
  // exactly 1 executor build, whatever their algorithm and seed.
  const std::uint64_t mis7 = one_shot_digest(g, "mis", 7);
  const std::uint64_t color7 = one_shot_digest(g, "color", 7);
  const std::uint64_t mis9 = one_shot_digest(g, "mis", 9);

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        Daemon daemon(daemon_config(std::move(lr), g));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;

        int rc = 0;
        const auto check = [&](const Response& resp, std::uint64_t id,
                               std::uint64_t digest, int fail_code) {
          if (rc != 0) return;
          if (resp.status != Status::kOk || resp.id != id ||
              resp.output_digest != digest) {
            rc = fail_code;
          }
        };
        // Three sequential submissions over the one standing fleet.
        check(submit(client, make_request(1, "mis", 7)), 1, mis7, 10);
        check(submit(client, make_request(2, "color", 7)), 2, color7, 11);
        check(submit(client, make_request(3, "mis", 9)), 3, mis9, 12);

        // Three concurrent ones: the queue serializes them onto the fleet,
        // every digest still matches the one-shot reference.
        std::vector<Response> concurrent(3);
        {
          std::vector<std::thread> clients;
          const std::vector<std::pair<std::string, std::uint64_t>> jobs = {
              {"mis", 7}, {"color", 7}, {"mis", 9}};
          for (std::size_t i = 0; i < jobs.size(); ++i) {
            clients.emplace_back([&, i] {
              concurrent[i] = submit(
                  client, make_request(4 + i, jobs[i].first, jobs[i].second));
            });
          }
          for (std::thread& t : clients) t.join();
        }
        check(concurrent[0], 4, mis7, 13);
        check(concurrent[1], 5, color7, 14);
        check(concurrent[2], 6, mis9, 15);

        // An invalid submission is answered kError without touching the
        // fleet (and therefore without breaking it).
        const Response bad = submit(client, make_request(7, "no-such", 1));
        if (rc == 0 && bad.status != Status::kError) rc = 16;
        if (rc == 0 && bad.brief.find("unknown algorithm") == std::string::npos)
          rc = 17;

        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 18;
        const Daemon::Stats stats = daemon.stats();
        if (stats.served != 6) return 19;
        if (stats.failed != 1) return 20;
        // One executor built by the first request, reused by the other
        // five: no served run rebuilds the topology or the partition.
        if (stats.cache_misses != 1) return 21;
        if (stats.cache_hits != 5) return 22;
        if (!daemon.fleet_ok()) return 23;
        return 0;
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

TEST(ServeDaemon, SplitAndMisShareTheResidentExecutor) {
  // `split` runs on the bipartite view's unified graph, which is the
  // resident graph (it shares config.graph's image): the first request
  // builds the resident executor and split and mis alike reuse it.
  Rng rng(13);
  const graph::Graph g =
      graph::gen::random_biregular(24, 48, 4, rng).unified();
  const graph::BipartiteGraph b = graph::bipartite_from_unified(g, 24);
  const std::uint64_t split5 = one_shot_digest(g, "split", 5, &b);
  const std::uint64_t split6 = one_shot_digest(g, "split", 6, &b);
  const std::uint64_t mis5 = one_shot_digest(g, "mis", 5);

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        DaemonConfig config = daemon_config(std::move(lr), g);
        config.nu = 24;
        Daemon daemon(std::move(config));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;
        int rc = 0;
        const auto check = [&](const Request& req, std::uint64_t digest,
                               int fail_code) {
          const Response resp = submit(client, req);
          if (rc == 0 && (resp.status != Status::kOk ||
                          resp.output_digest != digest)) {
            rc = fail_code;
          }
        };
        check(make_request(1, "split", 5), split5, 10);
        check(make_request(2, "mis", 5), mis5, 11);
        check(make_request(3, "split", 6), split6, 12);
        check(make_request(4, "mis", 5), mis5, 13);

        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 14;
        const Daemon::Stats stats = daemon.stats();
        if (stats.served != 4) return 15;
        if (stats.cache_misses != 1) return 16;  // the first split
        if (stats.cache_hits != 3) return 17;    // mis, split, mis
        return 0;
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

TEST(ServeDaemon, MixedObservabilityFleetServesRepeatedRequestsSafely) {
  // Only rank 0 observes (the --http-port deployment shape). The pre-round
  // observability agreement then makes the non-observing follower install a
  // *per-request* fleet recorder and hand its counter handles to the
  // standing transport; regression coverage for the use-after-free where
  // those handles outlived the request and the next dispatch wrote through
  // them (dist::run_fleet must unhook the transport's recorder on every
  // exit path). Three sequential requests make the follower's transport
  // await dispatches twice after a per-request recorder died.
  Rng rng(23);
  const graph::Graph g = graph::gen::gnp(32, 0.18, rng);
  const std::uint64_t mis7 = one_shot_digest(g, "mis", 7);
  const std::uint64_t color7 = one_shot_digest(g, "color", 7);
  const std::uint64_t mis9 = one_shot_digest(g, "mis", 9);

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        obs::Recorder recorder;  // rank 0 only; followers stay bare
        DaemonConfig config = daemon_config(std::move(lr), g);
        if (rank == 0) config.recorder = &recorder;
        Daemon daemon(std::move(config));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;

        int rc = 0;
        const auto check = [&](const Response& resp, std::uint64_t id,
                               std::uint64_t digest, int fail_code) {
          if (rc != 0) return;
          if (resp.status != Status::kOk || resp.id != id ||
              resp.output_digest != digest) {
            rc = fail_code;
          }
        };
        check(submit(client, make_request(1, "mis", 7)), 1, mis7, 10);
        check(submit(client, make_request(2, "color", 7)), 2, color7, 11);
        check(submit(client, make_request(3, "mis", 9)), 3, mis9, 12);

        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 13;
        if (daemon.stats().served != 3) return 14;
        if (!daemon.fleet_ok()) return 15;
        // The observing rank's recorder saw every served request.
        for (const obs::MetricSnapshot& m : recorder.metrics().snapshot()) {
          if (m.name == "serve.requests") return m.sum == 3 ? 0 : 16;
        }
        return 17;  // serve.requests never registered
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

TEST(ServeDaemon, ObservingFleetCountsEveryServedRunOnce) {
  // Both ranks observe (--http-port on every rank). Rank 0's
  // `rounds.live_nodes` must be the sum of the served runs' sequential
  // totals, however many runs the standing recorders saw.
  const graph::Graph g = graph::gen::torus(32, 32);
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  std::uint64_t expected = 0;
  for (const std::uint64_t seed : seeds) {
    obs::Recorder rec;
    algo::RunContext ctx;
    ctx.graph = &g;
    ctx.seed = seed;
    ctx.params = algo::Params::parse(algo::find("mis").params, {});
    ctx.factory = [&rec](const graph::Graph& fg) {
      auto exec = local::make_executor({}, fg);
      exec->set_recorder(&rec);
      return exec;
    };
    ctx.recorder = &rec;
    for (const obs::MetricSnapshot& m : algo::execute(algo::find("mis"), ctx)
                                            .metrics) {
      if (m.name == "rounds.live_nodes") expected += m.value();
    }
  }
  ASSERT_GT(expected, 0u);

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        obs::Recorder recorder;
        DaemonConfig config = daemon_config(std::move(lr), g);
        config.recorder = &recorder;
        Daemon daemon(std::move(config));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;
        int rc = 0;
        for (std::size_t i = 0; i < seeds.size(); ++i) {
          const Response resp =
              submit(client, make_request(i + 1, "mis", seeds[i]));
          if (rc == 0 && resp.status != Status::kOk) rc = 10;
        }
        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 11;
        for (const obs::MetricSnapshot& m : recorder.metrics().snapshot()) {
          if (m.name == "rounds.live_nodes") {
            return m.value() == expected ? 0 : 12;
          }
        }
        return 13;  // rounds.live_nodes never registered
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

// One client's outcome: its response, or the text of the exception its
// submit threw. Client threads must never let an exception escape — a
// std::terminate would take the whole test binary down.
struct ClientOutcome {
  Response response;
  std::string error;
};

ClientOutcome submit_caught(const ClientConfig& client, const Request& req) {
  ClientOutcome out;
  try {
    out.response = submit(client, req);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

TEST(ServeDaemon, GracefulShutdownAnswersEveryClientAndExitsZero) {
  Rng rng(5);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  // A single-rank fleet (dispatch short-circuits) keeps the whole drain
  // in-process and deterministic to assert on.
  net::Socket listen = net::listen_on(net::Endpoint{"127.0.0.1", 0});
  const net::Endpoint self = net::local_endpoint(listen.fd());

  std::atomic<bool> stop{false};
  DaemonConfig config;
  config.rank = 0;
  config.hosts = {self};
  config.listen = std::move(listen);
  config.graph = &g;
  config.idle_poll_ms = 20;
  config.stop_requested = [&] { return stop.load(); };
  Daemon daemon(std::move(config));

  int run_code = -1;
  std::thread runner([&] { run_code = daemon.run(); });
  ClientConfig client;
  client.port = daemon.request_port();
  client.timeout_ms = 60000;

  // One request served while healthy...
  const Response first = submit(client, make_request(1, "mis", 3));
  ASSERT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.output_digest, one_shot_digest(g, "mis", 3));

  // ...then a burst racing the shutdown latch: every client that reaches
  // the daemon must still get a terminal answer — kOk if its request was
  // accepted before the drain, kRejected("daemon is draining") after — and
  // the daemon must exit 0. A client whose connect comes after the port
  // closed cannot reach it at all, which is the one valid failure.
  std::vector<ClientOutcome> burst(4);
  std::vector<std::thread> clients;
  ClientConfig burst_client = client;
  burst_client.timeout_ms = 10000;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    clients.emplace_back([&, i] {
      burst[i] = submit_caught(burst_client, make_request(10 + i, "mis", 3));
    });
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  runner.join();
  EXPECT_EQ(run_code, 0);

  std::uint64_t ok = 0;
  for (const ClientOutcome& c : burst) {
    if (!c.error.empty()) {
      EXPECT_NE(c.error.find("cannot connect"), std::string::npos) << c.error;
    } else if (c.response.status == Status::kOk) {
      ++ok;
      EXPECT_EQ(c.response.output_digest, one_shot_digest(g, "mis", 3));
    } else {
      ASSERT_EQ(c.response.status, Status::kRejected);
      EXPECT_NE(c.response.brief.find("draining"), std::string::npos)
          << c.response.brief;
    }
  }
  EXPECT_EQ(daemon.stats().served, ok + 1);

  // Submissions after exit fail to connect at all — the port is gone —
  // and fail fast: a refused connect is not retried for the whole timeout.
  ClientConfig late = client;
  late.timeout_ms = 10000;
  const auto t0 = std::chrono::steady_clock::now();
  const ClientOutcome after_exit =
      submit_caught(late, make_request(99, "mis", 3));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(after_exit.error.find("refused"), std::string::npos)
      << after_exit.error;
  EXPECT_LT(waited, std::chrono::seconds(2));
}

TEST(ServeDaemon, DrainAnswersEveryConnectionThenRefusesConnects) {
  Rng rng(8);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  const std::uint64_t mis3 = one_shot_digest(g, "mis", 3);
  net::Socket listen = net::listen_on(net::Endpoint{"127.0.0.1", 0});
  const net::Endpoint self = net::local_endpoint(listen.fd());

  std::atomic<bool> stop{false};
  DaemonConfig config;
  config.rank = 0;
  config.hosts = {self};
  config.listen = std::move(listen);
  config.graph = &g;
  config.idle_poll_ms = 20;
  // Room for the whole burst, so no answer is "queue full".
  config.queue_capacity = 64;
  config.stop_requested = [&] { return stop.load(); };
  Daemon daemon(std::move(config));

  int run_code = -1;
  std::thread runner([&] { run_code = daemon.run(); });
  ClientConfig client;
  client.port = daemon.request_port();
  client.timeout_ms = 10000;

  // A 32-client burst racing the shutdown latch: every connection that
  // reaches the daemon — queued, in flight on the accept thread, or still
  // in the listen backlog at the drain — gets kOk or "draining". The latch
  // flips once every client thread runs, so (almost) all of them connect
  // before the port closes; a later one gives up after a second of
  // refused connects.
  std::vector<ClientOutcome> burst(32);
  std::vector<std::thread> clients;
  std::atomic<std::size_t> launched{0};
  for (std::size_t i = 0; i < burst.size(); ++i) {
    clients.emplace_back([&, i] {
      launched.fetch_add(1);
      burst[i] = submit_caught(client, make_request(100 + i, "mis", 3));
    });
  }
  while (launched.load() < burst.size()) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  runner.join();
  EXPECT_EQ(run_code, 0);

  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const ClientOutcome& c = burst[i];
    if (!c.error.empty()) {
      // Only a connect refused after the port closed is a valid failure.
      EXPECT_NE(c.error.find("cannot connect"), std::string::npos)
          << "client " << i << ": " << c.error;
    } else if (c.response.status == Status::kOk) {
      ++ok;
      EXPECT_EQ(c.response.output_digest, mis3) << "client " << i;
    } else {
      EXPECT_EQ(c.response.status, Status::kRejected) << "client " << i;
      EXPECT_NE(c.response.brief.find("draining"), std::string::npos)
          << "client " << i << ": " << c.response.brief;
    }
  }
  EXPECT_EQ(daemon.stats().served, ok);

  // Once run() returned the port is closed: a single raw connect (no
  // retry) is refused at once instead of queueing in a dead backlog.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(client.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int err = errno;
  ::close(fd);
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(err, ECONNREFUSED);
}

TEST(ServeDaemon, DeadFollowerFlipsFleetUnhealthyInsteadOfHanging) {
  Rng rng(6);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  std::vector<pid_t> children;
  const auto t0 = std::chrono::steady_clock::now();
  const net::LoopbackReport report = net::run_loopback_ranks(
      2,
      [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        Daemon daemon(daemon_config(std::move(lr), g));
        if (rank != 0) return daemon.run();  // idles until SIGKILLed

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        // The fleet is up (the ctor rendezvoused); now kill the follower
        // while the daemon is *idle* — the liveness probe, not a round
        // timeout, must notice.
        if (children.size() == 1) ::kill(children[0], SIGKILL);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (daemon.fleet_ok() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const bool noticed = !daemon.fleet_ok();

        // A submission against the broken fleet is answered, not hung.
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 30000;
        const Response resp = submit(client, make_request(1, "mis", 3));

        daemon.request_shutdown();
        runner.join();
        if (!noticed) return 10;
        if (resp.status != Status::kRejected) return 11;
        if (resp.brief.find("unhealthy") == std::string::npos) return 12;
        if (run_code != 0) return 13;
        return 0;
      },
      [&](const std::vector<pid_t>& pids) { children = pids; });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(report.rank0, 0);
  ASSERT_EQ(report.peer_exit_codes.size(), 1u);
  EXPECT_EQ(report.peer_exit_codes[0], 128 + SIGKILL);
  EXPECT_LT(elapsed, 30.0);
}

}  // namespace
}  // namespace ds::serve
