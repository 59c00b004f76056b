// perfbench_driver: runs one workload of the end-to-end benchmark and prints
// its raw observations as one JSON object (the last line of stdout).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// perfbench/run.py builds this binary, turns the raw observations into the
// named metrics (perfbench/stats.py) and prints them. The driver only times
// calls into the library's public functions from outside; the round-loop
// phase split of a traced run comes from the library's own obs::Recorder.
//
// Every timed sample runs in a forked child, so its peak RSS is that
// sample's own (getrusage of the child and of the ranks it reaped), never a
// high-water mark left behind by set-up or an earlier sample. The child
// reports back through a pipe as "key value" lines.

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "dist/partition.hpp"
#include "graph/insitu.hpp"
#include "local/topology.hpp"
#include "net/insitu_runner.hpp"
#include "net/loopback.hpp"
#include "obs/recorder.hpp"
#include "runtime/select.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "support/rng.hpp"

namespace {

using namespace ds;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t fleet_width() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// ---- workloads -------------------------------------------------------------

enum class Kind { kBatch, kInsitu, kServe };

// One workload. Instance sizes are chosen so that one sample takes well under
// a second on a 4-core x86 box: a 10 s run then holds tens of samples (the
// served workload: hundreds of requests), enough for stable medians.
struct Workload {
  std::string name;
  Kind kind = Kind::kBatch;
  std::string gen;
  std::string algo;     // empty for the served mix (mis and color)
  std::size_t width = 1;  // threads (batch), ranks (in-situ, serve)
};

std::vector<Workload> workloads() {
  const std::size_t w = fleet_width();
  return {
      {"cli-torus-mis", Kind::kBatch, "torus:w=256,h=256", "mis", 1},
      {"parallel-torus-color", Kind::kBatch, "torus:w=256,h=256", "color", w},
      {"insitu-gnp-mis", Kind::kInsitu, "gnp:n=100000,deg=16", "mis", w},
      {"serve-torus-mixed", Kind::kServe, "torus:w=128,h=128", "", 2},
  };
}

// Everything a workload run derives from the workload seed. The library only
// ever sees the generated instance and these seeds.
struct Plan {
  Workload wl;
  graph::GenSpec gen;
  std::uint64_t instance_seed = 0;
  std::uint64_t run_seed = 0;
  std::vector<std::uint64_t> pool;  // served request seeds
  std::uint64_t client_seed = 0;
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  return splitmix64(splitmix64(seed) ^ (0x9E3779B97F4A7C15ull * tag));
}

// Partition-cache capacity of serve::Daemon is 8: a pool of 12 topologies
// (seeds) makes the served mix both hit and miss; warm-up fills 8 slots.
constexpr std::size_t kPoolSize = 12;
constexpr std::size_t kWarmupRequests = 8;
constexpr std::size_t kClients = 2;
constexpr int kSetupRepeats = 3;
constexpr double kWarmCpuSeconds = 3.0;

Plan make_plan(const Workload& wl, std::uint64_t seed) {
  Plan p;
  p.wl = wl;
  p.gen = graph::GenSpec::parse(wl.gen);
  p.instance_seed = derive(seed, 1);
  // run_insitu drives generator and algorithm from one seed.
  p.run_seed = wl.kind == Kind::kInsitu ? p.instance_seed : derive(seed, 2);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    p.pool.push_back(derive(seed, 100 + i));
  }
  p.client_seed = derive(seed, 3);
  return p;
}

net::TcpOptions tcp_options() {
  net::TcpOptions o;
  o.handshake_timeout_ms = 20000;
  o.round_timeout_ms = 30000;
  return o;
}

// ---- child reports ---------------------------------------------------------

// "key value" lines; one write() per report so concurrent ranks writing short
// reports into one pipe never interleave (each stays below PIPE_BUF).
class Lines {
 public:
  void add(const std::string& key, const std::string& value) {
    text_ += key + " " + value + "\n";
  }
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    add(key, std::string(buf));
  }
  void add_u64(const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
  }
  void write_to(int fd) const {
    std::size_t done = 0;
    while (done < text_.size()) {
      const ssize_t k = ::write(fd, text_.data() + done, text_.size() - done);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return;
      done += static_cast<std::size_t>(k);
    }
  }

 private:
  std::string text_;
};

using Report = std::map<std::string, std::string>;

double num(const Report& r, const std::string& key, double fallback = 0.0) {
  const auto it = r.find(key);
  return it == r.end() ? fallback : std::stod(it->second);
}

std::string text(const Report& r, const std::string& key) {
  const auto it = r.find(key);
  return it == r.end() ? std::string() : it->second;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

// Peak RSS of this process and of every descendant it has reaped, in MB.
double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

// A forked child and the read end of its report pipe.
struct Child {
  pid_t pid = -1;
  int fd = -1;
  std::string buffer;  // bytes read but not yet consumed as lines
};

Child spawn(const std::function<void(int)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      body(fds[1]);
    } catch (const std::exception& e) {
      std::cerr << "perfbench child: " << e.what() << "\n";
      code = 3;
    } catch (...) {
      code = 3;
    }
    std::cerr.flush();
    ::_exit(code);
  }
  ::close(fds[1]);
  return Child{pid, fds[0], {}};
}

// Reads one line from the child's report; false at EOF.
bool read_line(Child& c, std::string& line) {
  for (;;) {
    const auto nl = c.buffer.find('\n');
    if (nl != std::string::npos) {
      line = c.buffer.substr(0, nl);
      c.buffer.erase(0, nl + 1);
      return true;
    }
    char tmp[65536];
    const ssize_t k = ::read(c.fd, tmp, sizeof tmp);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c.buffer.append(tmp, static_cast<std::size_t>(k));
  }
}

void parse_into(const std::string& line, Report& out) {
  const auto sp = line.find(' ');
  if (sp == std::string::npos) return;
  out[line.substr(0, sp)] = line.substr(sp + 1);
}

// Reads the rest of the report to EOF and reaps the child. Returns its exit
// code (128 + signal when killed).
int finish(Child& c, Report& out) {
  std::string line;
  while (read_line(c, line)) parse_into(line, out);
  ::close(c.fd);
  int status = 0;
  while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

int run_child(const std::function<void(int)>& body, Report& out) {
  Child c = spawn(body);
  return finish(c, out);
}

// ---- per-layer values from a recorder snapshot ------------------------------

// Adds the round-loop phase split of `ops` operations and returns the round
// time per operation. `lanes` is the number of ranks whose spans the
// fleet-merged snapshot sums; span totals are reported per lane (the mean
// rank), and per-shard epoch spans as mean and per-round max.
double add_round_layers(Lines& out,
                        const std::vector<obs::MetricSnapshot>& snap,
                        double lanes, double ops) {
  const auto find = [&](const std::string& name) -> const obs::MetricSnapshot* {
    for (const auto& m : snap) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const auto per_lane_s = [&](const std::string& name) {
    const auto* m = find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->sum) / lanes / ops / 1e6;
  };
  const auto mean_s = [&](const std::string& name) {
    const auto* m = find(name);
    return m == nullptr || m->count == 0
               ? 0.0
               : static_cast<double>(m->sum) / static_cast<double>(m->count) /
                     1e6;
  };
  const auto total = [&](const std::string& name) {
    const auto* m = find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->sum) / ops;
  };
  out.add("local.send_s", per_lane_s("phase.send.us"));
  out.add("local.receive_s", per_lane_s("phase.receive.us"));
  out.add("dist.round_s", per_lane_s("phase.round.us"));
  out.add("net.ship_s", per_lane_s("phase.ship.us"));
  out.add("net.barrier_s", per_lane_s("phase.barrier.us"));
  out.add("net.patch_s", per_lane_s("phase.patch.us"));
  out.add("runtime.epoch_mean_s", mean_s("phase.epoch.us"));
  out.add("runtime.straggler_s", mean_s("shard.straggler.us"));
  out.add("net.tx_bytes", total("tcp.tx.bytes"));
  out.add("net.tx_frames", total("tcp.tx.frames"));
  out.add("net.poll_iterations", total("tcp.poll.iterations"));
  out.add("net.retries", total("tcp.send.retries") + total("tcp.recv.retries"));
  return per_lane_s("phase.round.us");
}

// ---- batch and in-situ samples ----------------------------------------------

// algo::execute of `name` with default parameters on `g`: on the sequential
// local::Network, or on ParallelNetwork when `threads` > 1.
algo::Result run_spec(const std::string& name, const graph::Graph& g,
                      std::uint64_t seed, std::size_t threads = 1,
                      obs::Recorder* recorder = nullptr) {
  const algo::Spec& spec = algo::find(name);
  algo::RunContext ctx;
  ctx.graph = &g;
  ctx.seed = seed;
  ctx.params = algo::Params::parse(spec.params, {});
  runtime::RuntimeConfig config;
  if (threads > 1) {
    config.kind = runtime::RuntimeKind::kParallel;
    config.threads = threads;
  }
  ctx.factory = runtime::make_executor_factory(config, {}, recorder);
  ctx.sequential_runtime = runtime::is_sequential(config);
  ctx.recorder = recorder;
  return algo::execute(spec, ctx);
}

// Sequential reference digest of (instance, algo, seed) on the materialized
// instance, computed in set-up; every sample must reproduce it.
void reference_body(const Plan& p, int fd) {
  const graph::DistributedGenerator dg(p.gen, p.instance_seed);
  const algo::Result res = run_spec(p.wl.algo, dg.generate_full(), p.run_seed);
  Lines out;
  out.add("verified", res.verified ? "1" : "0");
  out.add("digest", hex(res.output_digest()));
  out.write_to(fd);
}

// One materialized run: generate -> algo::execute -> digest, in-process.
void batch_body(const Plan& p, bool traced, int fd) {
  obs::Recorder rec;
  const auto t0 = Clock::now();
  const graph::DistributedGenerator dg(p.gen, p.instance_seed);
  const graph::Graph g = dg.generate_full();
  const double generate_s = since(t0);
  const auto t1 = Clock::now();
  const algo::Result res = run_spec(p.wl.algo, g, p.run_seed, p.wl.width,
                                    traced ? &rec : nullptr);
  const double execute_s = since(t1);
  const auto t2 = Clock::now();
  const std::uint64_t digest = res.output_digest();
  const double digest_s = since(t2);
  const double wall = since(t0);

  Lines out;
  out.add("wall_s", wall);
  out.add("rss_mb", peak_rss_mb());
  out.add("verified", res.verified ? "1" : "0");
  out.add("digest", hex(digest));
  if (traced) {
    out.add("graph.generate_s", generate_s);
    out.add("algo.execute_s", execute_s);
    out.add("algo.digest_s", digest_s);
    out.add_u64("algo.rounds", res.executed_rounds);
    const double round_s =
        add_round_layers(out, rec.metrics().snapshot(), 1.0, 1.0);
    out.add("algo.unattributed_s", execute_s - round_s);
  }
  out.write_to(fd);
}

// One in-situ fleet run: fork the loopback ranks, each generates its own
// shard and runs net::run_insitu; every rank reports its digest.
void insitu_body(const Plan& p, bool traced, int fd) {
  obs::Recorder rec;
  const algo::Spec& spec = algo::find(p.wl.algo);
  const algo::Params params = algo::Params::parse(spec.params, {});
  net::InsituResult rank0;
  double rank0_s = 0;
  const auto t0 = Clock::now();
  const net::LoopbackReport report = net::run_loopback_ranks(
      p.wl.width, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        net::InsituConfig config;
        config.rank = rank;
        config.hosts = std::move(lr.hosts);
        config.listen = std::move(lr.listen);
        config.transport = tcp_options();
        const auto t = Clock::now();
        const net::InsituResult res =
            net::run_insitu(spec, params, p.run_seed, p.gen, std::move(config),
                            traced && rank == 0 ? &rec : nullptr);
        if (rank == 0) {
          rank0 = res;
          rank0_s = since(t);
        }
        Lines line;
        line.add("rank" + std::to_string(rank),
                 std::string(res.verified ? "1 " : "0 ") +
                     hex(res.output_digest));
        line.write_to(fd);
        return res.verified ? 0 : 1;
      });
  const double wall = since(t0);

  Lines out;
  out.add("wall_s", wall);
  out.add("rss_mb", peak_rss_mb());
  out.add("ranks_ok", report.all_ok() ? "1" : "0");
  if (traced) {
    out.add("algo.execute_s", rank0_s);
    out.add_u64("algo.rounds", rank0.rounds);
    const double round_s = add_round_layers(
        out, rec.metrics().snapshot(), static_cast<double>(p.wl.width), 1.0);
    out.add("algo.unattributed_s", rank0_s - round_s);
  }
  out.write_to(fd);
}

// Layer probes on the workload's instance, timed from outside: generation,
// one rank's shard + local CSR, topology, per-node environments, partition.
void probe_body(const Plan& p, int fd) {
  Lines out;
  const graph::DistributedGenerator dg(p.gen, p.instance_seed);
  auto t = Clock::now();
  const graph::Graph g = dg.generate_full();
  out.add("graph.generate_s", since(t));

  t = Clock::now();
  const local::NetworkTopology topo(g, local::IdStrategy::kSequential,
                                    p.run_seed);
  out.add("local.topology_s", since(t));

  t = Clock::now();
  std::size_t ports = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ports += topo.make_env(v).degree;
  }
  out.add("local.make_env_ns_per_node",
          since(t) * 1e9 / static_cast<double>(g.num_nodes()));
  if (ports != topo.total_ports()) throw std::runtime_error("make_env ports");

  // Rank 0's range of a node-uniform split (the in-situ layout). Its
  // incident edge list is completed from the other shards untimed: on a
  // fleet that completion is the transport's cut-edge exchange.
  const std::size_t parts = p.wl.width > 1 ? p.wl.width : fleet_width();
  const std::vector<graph::NodeId> bounds =
      net::uniform_boundaries(g.num_nodes(), parts);
  t = Clock::now();
  std::vector<graph::Edge> incident = dg.shard(bounds[0], bounds[1]);
  double shard_s = since(t);
  for (std::size_t r = 1; r < parts; ++r) {
    for (const graph::Edge& e : dg.shard(bounds[r], bounds[r + 1])) {
      if (e.u < bounds[1] || e.v < bounds[1]) incident.push_back(e);
    }
  }
  std::sort(incident.begin(), incident.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  incident.erase(std::unique(incident.begin(), incident.end(),
                             [](const graph::Edge& a, const graph::Edge& b) {
                               return a.u == b.u && a.v == b.v;
                             }),
                 incident.end());
  t = Clock::now();
  const graph::LocalCsr csr =
      graph::build_local_csr(incident, bounds[0], bounds[1]);
  shard_s += since(t);
  out.add("graph.shard_s", shard_s);

  // The partition the workload's runtime uses: rank-local slices over the
  // uniform split for the in-situ fleet, degree-balanced ranges otherwise.
  dist::PartitionStats stats;
  if (p.wl.kind == Kind::kInsitu) {
    t = Clock::now();
    const dist::Partition part = dist::Partition::rank_local(bounds, 0, csr);
    out.add("dist.partition_s", since(t));
    stats = dist::partition_stats(g, topo.port_offsets(), bounds);
  } else {
    t = Clock::now();
    const dist::Partition part(topo, parts);
    out.add("dist.partition_s", since(t));
    stats = part.stats();
  }
  out.add_u64("dist.cut_edges", stats.cut_edges);
  out.add("dist.balance", stats.balance_factor);
  out.write_to(fd);
}

// ---- output ----------------------------------------------------------------

// Minimal JSON writer for the raw observations.
class Json {
 public:
  void key(const std::string& k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
  }
  void open(char c) {
    comma();
    out_ << c;
    fresh_ = true;
  }
  void close(char c) {
    out_ << c;
    fresh_ = false;
  }
  void value(double v) {
    comma();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ << buf;
  }
  void value(const std::string& s) {
    comma();
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        out_ << c;
      }
    }
    out_ << '"';
  }
  void field(const std::string& k, double v) {
    key(k);
    value(v);
  }
  void field(const std::string& k, const std::string& v) {
    key(k);
    value(v);
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  void comma() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// One observation: a sample run or a served request.
struct Sample {
  std::string status = "ok";  // ok, thrown, unverified, mismatch, rejected, error
  double wall_s = 0;
  double rss_mb = 0;
  double server_s = 0;
  bool traced = false;
  std::map<std::string, double> layers;  // traced samples only
};

struct RunResult {
  std::vector<double> setup_s;
  double measured_s = 0;
  std::vector<Sample> samples;
  double peak_rss_mb = 0;  // served workload: polled over the window
  std::map<std::string, double> extra;  // probes and serve-level layers
};

void print_json(const std::string& workload, const RunResult& r) {
  Json j;
  j.open('{');
  j.field("workload", workload);
  j.key("setup_s");
  j.open('[');
  for (const double s : r.setup_s) j.value(s);
  j.close(']');
  j.field("measured_s", r.measured_s);
  j.field("peak_rss_mb", r.peak_rss_mb);
  j.key("samples");
  j.open('[');
  for (const Sample& s : r.samples) {
    j.open('{');
    j.field("status", s.status);
    j.field("traced", s.traced ? 1.0 : 0.0);
    j.field("wall_s", s.wall_s);
    j.field("rss_mb", s.rss_mb);
    j.field("server_s", s.server_s);
    j.key("layers");
    j.open('{');
    for (const auto& [k, v] : s.layers) j.field(k, v);
    j.close('}');
    j.close('}');
  }
  j.close(']');
  j.key("layers");
  j.open('{');
  for (const auto& [k, v] : r.extra) j.field(k, v);
  j.close('}');
  j.close('}');
  std::cout << j.str() << std::endl;
}

// Copies the layer lines of a traced child report into the sample.
void take_layers(const Report& rep, Sample& s) {
  for (const auto& [k, v] : rep) {
    if (k.find('.') != std::string::npos) {
      s.layers[k] = std::stod(v);
    }
  }
}

void add_probes(const Plan& p, RunResult& r) {
  Report rep;
  if (run_child([&](int fd) { probe_body(p, fd); }, rep) != 0) {
    throw std::runtime_error("layer probe failed");
  }
  for (const auto& [k, v] : rep) r.extra[k] = std::stod(v);
}

// ---- batch and in-situ runs ------------------------------------------------

std::string reference_digest(const Plan& p) {
  Report rep;
  const int code =
      run_child([&](int fd) { reference_body(p, fd); }, rep);
  if (code != 0 || text(rep, "verified") != "1" || text(rep, "digest").empty()) {
    throw std::runtime_error("reference run failed");
  }
  return text(rep, "digest");
}

Sample run_sample(const Plan& p, bool traced, const std::string& reference) {
  Report rep;
  const int code = run_child(
      [&](int fd) {
        if (p.wl.kind == Kind::kInsitu) {
          insitu_body(p, traced, fd);
        } else {
          batch_body(p, traced, fd);
        }
      },
      rep);
  Sample s;
  s.traced = traced;
  s.wall_s = num(rep, "wall_s");
  s.rss_mb = num(rep, "rss_mb");
  if (code != 0 || !rep.count("wall_s")) {
    s.status = "thrown";
    return s;
  }
  if (p.wl.kind == Kind::kInsitu) {
    // Every rank must report, verified, with the one fleet digest.
    if (text(rep, "ranks_ok") != "1") s.status = "thrown";
    for (std::size_t r = 0; r < p.wl.width && s.status == "ok"; ++r) {
      const std::string line = text(rep, "rank" + std::to_string(r));
      if (line.empty()) {
        s.status = "thrown";
      } else if (line.rfind("1 ", 0) != 0) {
        s.status = "unverified";
      } else if (line.substr(2) != reference) {
        s.status = "mismatch";
      }
    }
  } else if (text(rep, "verified") != "1") {
    s.status = "unverified";
  } else if (text(rep, "digest") != reference) {
    s.status = "mismatch";
  }
  if (traced) take_layers(rep, s);
  return s;
}

RunResult run_batch(const Plan& p, double seconds, bool trace) {
  RunResult r;
  // Set-up: the sequential reference digest plus one checked warm-up sample,
  // repeated so that the reported set-up time is a median.
  std::string reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t = Clock::now();
    const std::string digest = reference_digest(p);
    if (!reference.empty() && digest != reference) {
      throw std::runtime_error("reference digest differs between set-ups");
    }
    reference = digest;
    const Sample warm = run_sample(p, false, reference);
    if (warm.status != "ok") throw std::runtime_error("warm-up: " + warm.status);
    r.setup_s.push_back(since(t));
  }
  // Measured window; a traced run alternates untraced and traced samples so
  // both see the same machine state.
  const auto t0 = Clock::now();
  bool traced = false;
  while (since(t0) < seconds || r.samples.empty()) {
    r.samples.push_back(run_sample(p, traced, reference));
    if (trace) traced = !traced;
  }
  r.measured_s = since(t0);
  if (trace) add_probes(p, r);
  return r;
}

// ---- served workload -------------------------------------------------------

// A standing 2-rank daemon fleet in a forked child (rank 0 there, rank 1 a
// grandchild). Closing `control` asks rank 0 to drain and shut down.
struct Fleet {
  Child child;
  int control = -1;
  pid_t follower = -1;
  std::uint16_t port = 0;
};

Fleet start_fleet(const Plan& p, const graph::Graph& g, bool traced) {
  int ctl[2];
  if (::pipe(ctl) != 0) throw std::runtime_error("pipe failed");
  Fleet f;
  f.child = spawn([&](int fd) {
    ::close(ctl[1]);
    const int stop_fd = ctl[0];
    const net::LoopbackReport report = net::run_loopback_ranks(
        p.wl.width,
        [&](net::LoopbackRank&& lr) -> int {
          const std::size_t rank = lr.rank;
          obs::Recorder rec;
          serve::DaemonConfig config;
          config.rank = rank;
          config.hosts = std::move(lr.hosts);
          config.listen = std::move(lr.listen);
          config.transport = tcp_options();
          config.graph = &g;
          config.idle_poll_ms = 20;
          if (rank == 0) {
            if (traced) config.recorder = &rec;
            config.stop_requested = [stop_fd] {
              pollfd pfd{stop_fd, POLLIN, 0};
              return ::poll(&pfd, 1, 0) > 0;
            };
          }
          serve::Daemon daemon(std::move(config));
          if (rank == 0) {
            Lines line;
            line.add_u64("port", daemon.request_port());
            line.write_to(fd);
          }
          const int code = daemon.run();
          if (rank == 0) {
            const serve::Daemon::Stats st = daemon.stats();
            Lines out;
            out.add_u64("cache_hits", st.cache_hits);
            out.add_u64("cache_misses", st.cache_misses);
            if (traced) {
              const double ops = static_cast<double>(
                  std::max<std::uint64_t>(1, st.served + st.failed));
              add_round_layers(out, rec.metrics().snapshot(),
                               static_cast<double>(p.wl.width), ops);
            }
            out.write_to(fd);
          }
          return code;
        },
        [&](const std::vector<pid_t>& pids) {
          Lines line;
          line.add_u64("follower", static_cast<std::uint64_t>(pids.at(0)));
          line.write_to(fd);
        });
    if (!report.all_ok()) throw std::runtime_error("a daemon rank failed");
  });
  ::close(ctl[0]);
  f.control = ctl[1];
  std::string line;
  Report rep;
  while (f.port == 0 && read_line(f.child, line)) {
    parse_into(line, rep);
    if (rep.count("follower")) f.follower = static_cast<pid_t>(num(rep, "follower"));
    if (rep.count("port")) f.port = static_cast<std::uint16_t>(num(rep, "port"));
  }
  if (f.port == 0) {
    ::close(f.control);
    Report rest;
    finish(f.child, rest);
    throw std::runtime_error("daemon fleet did not come up");
  }
  return f;
}

Report stop_fleet(Fleet& f) {
  ::close(f.control);
  Report rep;
  if (finish(f.child, rep) != 0) throw std::runtime_error("daemon fleet failed");
  return rep;
}

using References = std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>;

// Reference digests of every (algorithm, pool seed), computed in a child so
// that the fleet forked afterwards does not inherit their memory.
References serve_references(const Plan& p, const graph::Graph& g) {
  const std::vector<std::string> names = {"mis", "color"};
  const auto key = [](const std::string& name, std::uint64_t seed) {
    return name + "@" + std::to_string(seed);
  };
  Report rep;
  const int code = run_child(
      [&](int fd) {
        Lines out;
        for (const std::string& name : names) {
          for (const std::uint64_t seed : p.pool) {
            const algo::Result res = run_spec(name, g, seed);
            if (!res.verified) throw std::runtime_error("reference unverified");
            out.add(key(name, seed), hex(res.output_digest()));
          }
        }
        out.write_to(fd);
      },
      rep);
  if (code != 0) throw std::runtime_error("reference runs failed");
  References refs;
  for (const std::string& name : names) {
    for (const std::uint64_t seed : p.pool) {
      refs[{name, seed}] = std::stoull(text(rep, key(name, seed)), nullptr, 16);
    }
  }
  return refs;
}

// One closed-loop request: connect, submit, decode, check the digest.
Sample request(std::uint16_t port, std::uint64_t id, const std::string& algo,
               std::uint64_t seed, const References& refs) {
  serve::ClientConfig client;
  client.port = port;
  client.timeout_ms = 30000;
  serve::Request req;
  req.id = id;
  req.algo = algo;
  req.seed = seed;
  Sample s;
  const auto t = Clock::now();
  try {
    const serve::Response resp = serve::submit(client, req);
    s.wall_s = since(t);
    s.server_s = static_cast<double>(resp.wall_us) / 1e6;
    s.layers["algo.rounds"] = static_cast<double>(resp.rounds);
    if (resp.status == serve::Status::kRejected) {
      s.status = "rejected";
    } else if (resp.status != serve::Status::kOk) {
      s.status = "error";
    } else if (resp.brief.find("verified=yes") == std::string::npos) {
      s.status = "unverified";
    } else if (resp.output_digest != refs.at({algo, seed})) {
      s.status = "mismatch";
    }
  } catch (const std::exception&) {
    s.wall_s = since(t);
    s.status = "thrown";
  }
  return s;
}

// Resident RSS of `pid` in MB (0 once it is gone).
double rss_mb_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(in >> size >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Drives `kClients` closed-loop clients against the fleet for `seconds`,
// polling the fleet processes' RSS meanwhile. Requests alternate mis and
// color per client; seeds are drawn from the pool.
double drive_clients(const Plan& p, const Fleet& f, const References& refs,
                     double seconds, bool traced, std::uint64_t stream,
                     RunResult& r) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::atomic<bool> done{false};
  double peak = 0;
  std::thread poller([&] {
    while (!done.load()) {
      peak = std::max({peak, rss_mb_of(f.child.pid), rss_mb_of(f.follower)});
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(derive(p.client_seed, stream * 16 + c));
      for (std::uint64_t i = 0; since(t0) < seconds; ++i) {
        const std::uint64_t seed = p.pool[rng.next_u64(p.pool.size())];
        Sample s = request(f.port, (c << 32) | i,
                           (i + c) % 2 == 0 ? "mis" : "color", seed, refs);
        s.traced = traced;
        per_client[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = since(t0);
  done.store(true);
  poller.join();
  for (const auto& v : per_client) {
    r.samples.insert(r.samples.end(), v.begin(), v.end());
  }
  r.peak_rss_mb = std::max(r.peak_rss_mb, peak);
  return elapsed;
}

// Warm-up: the first kWarmupRequests pool seeds, one request each, so the
// partition cache holds them before the window opens.
void warm_up(const Plan& p, const Fleet& f, const References& refs) {
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const Sample s = request(f.port, 1000000 + i, i % 2 == 0 ? "mis" : "color",
                             p.pool[i], refs);
    if (s.status != "ok") throw std::runtime_error("warm-up: " + s.status);
  }
}

RunResult run_serve(const Plan& p, double seconds, bool trace) {
  RunResult r;
  const graph::DistributedGenerator dg(p.gen, p.instance_seed);
  const graph::Graph g = dg.generate_full();
  // Set-up: reference digests, fleet start-up and rendezvous, warm-up. The
  // first fleets are shut down again; the last one serves the window.
  References refs;
  Fleet fleet;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) stop_fleet(fleet);
    const auto t = Clock::now();
    refs = serve_references(p, g);
    fleet = start_fleet(p, g, false);
    warm_up(p, fleet, refs);
    r.setup_s.push_back(since(t));
  }
  // A traced run splits the window: first the untraced fleet, then a fleet
  // with a recorder on rank 0, so the trace overhead compares like with like.
  const double window = trace ? seconds / 2 : seconds;
  r.measured_s = drive_clients(p, fleet, refs, window, false, 0, r);
  Report rep = stop_fleet(fleet);
  if (trace) {
    fleet = start_fleet(p, g, true);
    warm_up(p, fleet, refs);
    drive_clients(p, fleet, refs, window, true, 1, r);
    rep = stop_fleet(fleet);
    for (const auto& [k, v] : rep) {
      if (k.find('.') != std::string::npos) r.extra[k] = std::stod(v);
    }
    add_probes(p, r);
  }
  // Warm-up requests were all misses into an empty cache; the rest were
  // served in the window (the last fleet's counters).
  const double hits = num(rep, "cache_hits");
  const double misses =
      num(rep, "cache_misses") - static_cast<double>(kWarmupRequests);
  r.extra["serve.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  return r;
}

// Keeps every CPU busy for `seconds`. On a virtual machine whose idle vCPUs
// were descheduled, a multi-threaded sample first runs at about one core's
// speed until the host schedules all vCPUs again (measured: 4x slower for
// the first second, full speed after about two). Spinning before set-up
// keeps that ramp out of the measurements; it is not part of setup_s.
void warm_cpus(double seconds) {
  std::vector<std::thread> spinners;
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    spinners.emplace_back([&] {
      volatile std::uint64_t x = 1;
      while (since(t0) < seconds) {
        for (int k = 0; k < 100000; ++k) x = x * 6364136223846793005ull + 1;
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1\n  workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    return usage();
  }
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const std::uint64_t seed = std::stoull(args["--seed"]);
    const double seconds = std::stod(args["--seconds"]);
    const bool trace = args["--trace"] == "1";
    for (const Workload& w : workloads()) {
      if (w.name != args["--workload"]) continue;
      const Plan plan = make_plan(w, seed);
      warm_cpus(kWarmCpuSeconds);
      const RunResult r = w.kind == Kind::kServe
                              ? run_serve(plan, seconds, trace)
                              : run_batch(plan, seconds, trace);
      print_json(w.name, r);
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
