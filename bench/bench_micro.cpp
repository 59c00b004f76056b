// Micro-benchmarks (google-benchmark) of the hot substrate operations:
// Euler partition, power-graph coloring, derandomization throughput,
// verifier throughput, instance generation, and LOCAL-executor round
// throughput (sequential Network vs thread ranks vs a TCP loopback fleet).
//
// Custom main: in addition to the normal console output, `--json=FILE`
// writes a machine-readable trajectory record (schema distsplit-bench-v1:
// per-benchmark ns/op + user counters, plus run provenance) which
// tools/bench_compare.py diffs against bench/BENCH_BASELINE.json in CI.

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "support/provenance.hpp"

#include "coloring/distance_coloring.hpp"
#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "mis/mis.hpp"
#include "netdecomp/decomposition.hpp"
#include "orient/euler.hpp"
#include "graph/properties.hpp"
#include "local/ids.hpp"
#include "local/network.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "orient/euler.hpp"
#include "runtime/select.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "splitting/trivial_random.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/rng.hpp"

namespace {

using namespace ds;

graph::Multigraph make_multigraph(std::size_t n, std::size_t m) {
  Rng rng(n + m);
  graph::Multigraph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    g.add_edge(static_cast<graph::NodeId>(rng.next_index(n)),
               static_cast<graph::NodeId>(rng.next_index(n)));
  }
  return g;
}

void BM_EulerOrientation(benchmark::State& state) {
  const auto g = make_multigraph(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(4 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(orient::euler_orientation(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_EulerOrientation)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PowerColoringB2(benchmark::State& state) {
  Rng rng(1);
  const auto b = graph::gen::random_biregular(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(2 * state.range(0)), 16, rng);
  const auto unified = b.unified();
  Rng id_rng(2);
  const auto ids =
      local::assign_ids(unified, local::IdStrategy::kSequential, id_rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coloring::color_power(unified, 2, ids, nullptr));
  }
}
BENCHMARK(BM_PowerColoringB2)->Arg(64)->Arg(128)->Arg(256);

void BM_WeakSplittingDerand(benchmark::State& state) {
  Rng rng(3);
  const auto b = graph::gen::random_biregular(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(2 * state.range(0)), 16, rng);
  const derand::Problem problem = derand::weak_splitting_problem(b);
  std::vector<std::uint32_t> order(b.num_right());
  std::iota(order.begin(), order.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(derand::derandomize(problem, order));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.num_right()));
}
BENCHMARK(BM_WeakSplittingDerand)->Arg(128)->Arg(512)->Arg(2048);

void BM_VerifierThroughput(benchmark::State& state) {
  Rng rng(4);
  const auto b = graph::gen::random_biregular(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(2 * state.range(0)), 24, rng);
  const auto colors = splitting::trivial_random_split(b, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitting::is_weak_splitting(b, colors));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.num_edges()));
}
BENCHMARK(BM_VerifierThroughput)->Arg(512)->Arg(4096);

void BM_BallGathering(benchmark::State& state) {
  Rng rng(5);
  const auto g =
      graph::gen::random_regular(static_cast<std::size_t>(state.range(0)), 8,
                                 rng);
  graph::NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ball(g, v, 2));
    v = (v + 1) % static_cast<graph::NodeId>(g.num_nodes());
  }
}
BENCHMARK(BM_BallGathering)->Arg(1024)->Arg(8192);

void BM_RandomBiregular(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::gen::random_biregular(
        static_cast<std::size_t>(state.range(0)),
        static_cast<std::size_t>(2 * state.range(0)), 16, rng));
  }
}
BENCHMARK(BM_RandomBiregular)->Arg(128)->Arg(1024);

void BM_AlternatingBicoloring(benchmark::State& state) {
  Rng rng(7);
  const auto g = graph::gen::random_regular(
      static_cast<std::size_t>(state.range(0)), 16, rng);
  graph::Multigraph m(g.num_nodes());
  for (const graph::Edge& e : g.edges()) m.add_edge(e.u, e.v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orient::alternating_bicoloring(m));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.num_edges()));
}
BENCHMARK(BM_AlternatingBicoloring)->Arg(512)->Arg(4096);

void BM_LubyMis(benchmark::State& state) {
  Rng rng(8);
  const auto g = graph::gen::random_regular(
      static_cast<std::size_t>(state.range(0)), 8, rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mis::luby(g, seed++));
  }
}
BENCHMARK(BM_LubyMis)->Arg(256)->Arg(1024);

void BM_BallCarving(benchmark::State& state) {
  Rng rng(9);
  const auto g = graph::gen::random_regular(
      static_cast<std::size_t>(state.range(0)), 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netdecomp::ball_carving(g));
  }
}
BENCHMARK(BM_BallCarving)->Arg(256)->Arg(1024);

// ---- LOCAL-executor round throughput ------------------------------------
// A fixed-round gossip program (each node forwards the running XOR of its
// inbox) on a torus: pure executor overhead — message routing, barriers,
// scheduling — with negligible per-node compute. Items processed = node
// rounds, so items/s is directly comparable between executors and thread
// counts. Programs serialize through the zero-allocation `Outbox` arena.

/// Writer-API gossip: broadcast serializes straight into the arena.
class GossipProgram final : public local::NodeProgram {
 public:
  GossipProgram(const local::NodeEnv& env, std::size_t rounds)
      : env_(env), rounds_(rounds), acc_(env.uid) {}

  void send(std::size_t, local::Outbox& out) override {
    out.broadcast({acc_});
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const local::MessageView msg = inbox[p];
      if (!msg.empty()) acc_ ^= msg[0] * 0x9E3779B97F4A7C15ull;
    }
    done_ = round + 1 >= rounds_;
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t acc() const { return acc_; }

 private:
  local::NodeEnv env_;
  std::size_t rounds_;
  std::uint64_t acc_;
  bool done_ = false;
};

constexpr std::size_t kGossipRounds = 8;

local::ProgramFactory gossip_factory() {
  return [](const local::NodeEnv& env) {
    return std::make_unique<GossipProgram>(env, kGossipRounds);
  };
}

// Side of the torus: n = side^2 nodes. 1024 -> the 1M-node instance of the
// runtime acceptance target.
void BM_SequentialRounds(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::gen::torus(side, side);
  local::Network net(g);
  for (auto _ : state) {
    net.run(gossip_factory(), local::IdStrategy::kSequential, 42,
            kGossipRounds + 1);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(g.num_nodes() * kGossipRounds));
}
BENCHMARK(BM_SequentialRounds)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// What `--runtime=parallel --threads=T` runs: T thread ranks over the
// shared rank loop, spawned per run() call, so the measured time includes
// spawn and join. Arg pair: torus side, thread count.
void BM_ParallelRounds(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  runtime::RuntimeConfig config;
  config.kind = runtime::RuntimeKind::kParallel;
  config.threads = static_cast<std::size_t>(state.range(1));
  const auto g = graph::gen::torus(side, side);
  const auto net = runtime::make_executor_factory(config)(g);
  for (auto _ : state) {
    net->run(gossip_factory(), local::IdStrategy::kSequential, 42,
             kGossipRounds + 1);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(g.num_nodes() * kGossipRounds));
}
BENCHMARK(BM_ParallelRounds)
    ->Args({64, 1})->Args({64, 8})
    ->Args({256, 1})->Args({256, 8})
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Observability overhead on the sequential round loop: Arg 1 runs with a
// recorder installed (counters + phase spans tick every round), Arg 0 the
// plain disabled path. The disabled path must stay within noise of the
// pre-observability numbers — the handles are null and every metric call
// is one branch — while the delta between the two rows is the cost a
// --metrics/--trace run pays.
// Arg: 0 = recorder off, 1 = recorder attached, 2 = recorder attached AND
// a `SnapshotPublisher` coalescing a snapshot at every round boundary (the
// live-endpoints configuration, server idle). Arm 2 must stay within noise
// of arm 1 — the round path publishes through relaxed atomics, no locks.
void BM_MetricsOverhead(benchmark::State& state) {
  const auto g = graph::gen::torus(64, 64);
  local::Network net(g);
  obs::Recorder recorder;
  obs::SnapshotPublisher publisher;
  if (state.range(0) != 0) net.set_recorder(&recorder);
  if (state.range(0) == 2) recorder.set_publisher(&publisher);
  // Thousands of iterations stay bounded: the span buffer is the recorder's
  // flight-recorder ring, which overwrites its oldest spans once full.
  for (auto _ : state) {
    net.run(gossip_factory(), local::IdStrategy::kSequential, 42,
            kGossipRounds + 1);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(g.num_nodes() * kGossipRounds));
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The socket-path overhead of the same gossip rounds: a loopback TCP rank
// fleet per iteration (fork + rendezvous + rounds + teardown — the
// realistic cost of one multi-host execution, comparable to
// BM_ParallelRounds, which likewise spawns its thread ranks per run). Arg
// pair: torus side, rank count.
void BM_TcpLoopbackRounds(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto ranks = static_cast<std::size_t>(state.range(1));
  const auto g = graph::gen::torus(side, side);
  for (auto _ : state) {
    const net::LoopbackReport report = net::run_loopback_ranks(
        ranks, [&](net::LoopbackRank&& lr) -> int {
          net::TcpTransport transport(lr.rank, lr.hosts, {}, {},
                                      std::move(lr.listen));
          net::TcpNetwork net(g, transport);
          net.run(gossip_factory(), local::IdStrategy::kSequential, 42,
                  kGossipRounds + 1);
          return 0;
        });
    if (!report.all_ok()) {
      state.SkipWithError("a loopback rank failed");
      break;
    }
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(g.num_nodes() * kGossipRounds));
}
BENCHMARK(BM_TcpLoopbackRounds)
    ->Args({64, 2})->Args({64, 4})
    ->Args({256, 2})->Args({256, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The scale-path input question: how much faster is mmap-loading a packed
// .dsg file than regenerating the instance in memory? Arg pair: torus side,
// source (0 = in-memory generation through the deterministic
// DistributedGenerator, 1 = load_dsg of a pre-packed file). The mapped load
// is O(1) — header validation plus mmap — so the gap widens linearly with
// the instance; bench-smoke records both rows. The loaded graph's CSR is
// touched once per iteration (degree sum) so the mapped rows pay their
// first page faults instead of benchmarking a lazy no-op.
void BM_MmapLoadVsGenerate(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const bool mapped = state.range(1) != 0;
  const graph::GenSpec spec = graph::GenSpec::parse(
      "torus:w=" + std::to_string(side) + ",h=" + std::to_string(side));
  const graph::DistributedGenerator dg(spec, 42);
  const std::string path = "/tmp/bench_mmap_torus.dsg";
  if (mapped) graph::write_dsg(dg.generate_full(), path, 0, dg.seed());
  for (auto _ : state) {
    const graph::Graph g = mapped ? graph::load_dsg(path) : dg.generate_full();
    std::size_t ports = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ports += g.degree(v);
    benchmark::DoNotOptimize(ports);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dg.num_nodes()));
}
BENCHMARK(BM_MmapLoadVsGenerate)
    ->Args({256, 0})->Args({256, 1})
    ->Args({1024, 0})->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// Per-submission cost of the resident serving path once the fleet is up: a
// single-rank in-process daemon (the dispatch broadcast short-circuits
// with no followers) stands for all iterations, and each op is one full
// client round trip — connect, framed request, validate, execute `mis`
// on the daemon's resident executor (topology and partition built by the
// first request), respond. Compare against BM_TcpLoopbackRounds, which
// pays rendezvous + partition per run — the gap is what residency buys.
// Arg: nodes of the resident gnp instance.
void BM_ServeRequestRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const graph::Graph g = graph::gen::gnp(n, 0.1, rng);
  net::Socket listen = net::listen_on(net::Endpoint{"127.0.0.1", 0});
  serve::DaemonConfig config;
  config.rank = 0;
  config.hosts = {net::local_endpoint(listen.fd())};
  config.listen = std::move(listen);
  config.graph = &g;
  config.idle_poll_ms = 20;
  serve::Daemon daemon(std::move(config));
  std::thread runner([&] { daemon.run(); });
  serve::ClientConfig client;
  client.port = daemon.request_port();
  std::uint64_t id = 0;
  for (auto _ : state) {
    serve::Request req;
    req.id = ++id;
    req.algo = "mis";
    req.seed = 7;
    const serve::Response resp = serve::submit(client, req);
    if (resp.status != serve::Status::kOk) {
      state.SkipWithError("submission not served");
      break;
    }
    benchmark::DoNotOptimize(resp.output_digest);
  }
  daemon.request_shutdown();
  runner.join();
}
BENCHMARK(BM_ServeRequestRoundTrip)
    ->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- trajectory emission (--json=FILE) ----------------------------------

/// Console reporter that additionally retains every successful iteration
/// run so main() can emit the distsplit-bench-v1 trajectory record.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      collected_.push_back(run);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Run>& collected() const {
    return collected_;
  }

 private:
  std::vector<Run> collected_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// distsplit-bench-v1: documented in README.md (Profiling section). ns/op
/// is the accumulated time over the whole measurement divided by the
/// iteration count — the unit-independent quantity bench_compare.py diffs.
void write_bench_json(
    std::ostream& out,
    const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  out << "{\n  \"schema\": \"distsplit-bench-v1\",\n  \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : Provenance::get().context()) {
    out << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \""
        << json_escape(value) << "\"";
    first = false;
  }
  out << "},\n  \"benchmarks\": [";
  first = true;
  for (const auto& run : runs) {
    const auto iters =
        run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
    out << (first ? "" : ",") << "\n    {\"name\": \""
        << json_escape(run.benchmark_name()) << "\", \"iterations\": "
        << run.iterations << ", \"real_ns_per_op\": "
        << run.real_accumulated_time * 1e9 / iters
        << ", \"cpu_ns_per_op\": " << run.cpu_accumulated_time * 1e9 / iters
        << ", \"counters\": {";
    bool first_counter = true;
    for (const auto& [name, counter] : run.counters) {
      out << (first_counter ? "" : ", ") << "\"" << json_escape(name)
          << "\": " << static_cast<double>(counter);
      first_counter = false;
    }
    out << "}}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json=FILE before handing argv to google-benchmark (it rejects
  // flags it does not know).
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "error: cannot open --json output file: " << json_path
                << "\n";
      return 1;
    }
    write_bench_json(out, reporter.collected());
    out.flush();
    if (!out.good()) {
      std::cerr << "error: failed writing --json output file: " << json_path
                << "\n";
      return 1;
    }
    std::cout << "json: " << json_path << " (" << reporter.collected().size()
              << " benchmarks)\n";
  }
  benchmark::Shutdown();
  return 0;
}
