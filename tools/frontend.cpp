#include "frontend.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "graph/format.hpp"
#include "graph/insitu.hpp"
#include "graph/io.hpp"
#include "support/check.hpp"
#include "support/provenance.hpp"

namespace ds::frontend {

namespace {

/// Writes `body(out)` to `path`, failing loudly on I/O errors.
template <typename Body>
void write_file(const std::string& path, const char* what, Body body) {
  std::ofstream out(path);
  DS_CHECK_MSG(out.good(), std::string("cannot open ") + what +
                               " output file: " + path);
  body(out);
  out.flush();
  DS_CHECK_MSG(out.good(), std::string("failed writing ") + what +
                               " output file: " + path);
}

}  // namespace

void check_flags(const Options& opts, const std::vector<std::string>& allowed,
                 const std::string& note,
                 const std::map<std::string, std::string>& retired) {
  for (const std::string& key : opts.keys()) {
    if (std::ranges::find(allowed, key) != allowed.end()) continue;
    std::string msg = "unknown flag '--" + key + "'";
    const auto replaced = retired.find(key);
    const std::string hint = replaced != retired.end()
                                 ? replaced->second
                                 : algo::suggest(key, allowed);
    if (!hint.empty()) msg += "; did you mean '--" + hint + "'?";
    DS_CHECK_MSG(false, msg + " " + note);
  }
}

std::uint16_t port_flag(const Options& opts, const std::string& key,
                        std::size_t max_rank) {
  const long long port = opts.get_int(key, 0);
  const long long top = 65535 - static_cast<long long>(max_rank);
  DS_CHECK_MSG(port == 0 || (port > 0 && port <= top),
               "--" + key + "=" + std::to_string(port) +
                   " is out of range 0.." + std::to_string(top) +
                   (max_rank > 0 ? " (rank r binds P + r)" : ""));
  return static_cast<std::uint16_t>(port);
}

std::size_t capacity_flag(const Options& opts, const std::string& key,
                          std::size_t fallback) {
  const long long n = opts.get_int(key, static_cast<long long>(fallback));
  DS_CHECK_MSG(n >= 1,
               "--" + key + "=" + std::to_string(n) + " must be >= 1");
  return static_cast<std::size_t>(n);
}

Source instance_source(const Options& opts) {
  const bool input = !opts.get("input", "").empty();
  const bool dsg = !opts.get("graph", "").empty();
  const bool gen = !opts.get("gen", "").empty();
  DS_CHECK_MSG(input + dsg + gen == 1,
               "exactly one of --input=FILE, --graph=FILE.dsg or --gen=SPEC "
               "is required");
  return input ? Source::kInput : dsg ? Source::kGraph : Source::kGen;
}

Instance load_instance(const Options& opts, algo::InputKind input,
                       const std::string& who) {
  const Source source = instance_source(opts);
  const bool bipartite = input == algo::InputKind::kBipartiteGraph;
  Instance inst;
  if (source == Source::kInput) {
    const std::string path = opts.get("input", "");
    std::ifstream in(path);
    DS_CHECK_MSG(in.good(), "cannot open input file: " + path);
    if (bipartite) {
      inst.bipartite = graph::io::read_bipartite(in);
      inst.graph = inst.bipartite.unified();
      inst.nu = inst.bipartite.num_left();
    } else {
      inst.graph = graph::io::read_edge_list(in);
    }
    return inst;
  }
  if (source == Source::kGraph) {
    const std::string path = opts.get("graph", "");
    graph::DsgHeader header;
    inst.graph = graph::load_dsg(path, &header);
    graph::check_dsg_structure(inst.graph, path);
    inst.nu = static_cast<std::size_t>(header.nu);
  } else {
    const graph::DistributedGenerator dg(
        graph::GenSpec::parse(opts.get("gen", "")), opts.seed());
    inst.graph = dg.generate_full();
    inst.nu = dg.num_left();
  }
  if (bipartite) {
    DS_CHECK_MSG(inst.nu > 0, who +
                                  " needs a bipartite instance, but this "
                                  "source carries no left/right split");
    inst.bipartite = graph::bipartite_from_unified(inst.graph, inst.nu);
  }
  return inst;
}

ObsFlags::ObsFlags(const Options& opts, std::size_t max_rank)
    : metrics(opts.get("metrics", "")),
      trace(opts.get("trace", "")),
      profile(opts.get("profile", "")),
      stats(opts.has("stats")),
      event_cap(capacity_flag(opts, "event-cap",
                              obs::Recorder::kDefaultEventCapacity)) {
  if (opts.has("http-port")) {
    http_port = port_flag(opts, "http-port", max_rank);
  }
}

ObsSession::ObsSession(const ObsFlags& flags, std::size_t rank,
                       std::string prefix, Labels labels)
    : flags_(flags),
      rank_(rank),
      prefix_(std::move(prefix)),
      labels_(std::move(labels)) {
  for (const auto& kv : Provenance::get().context()) labels_.push_back(kv);
  if (!flags_.observe()) return;
  recorder_.set_lane(static_cast<std::uint32_t>(rank));
  recorder_.set_event_capacity(flags_.event_cap);
  // Sampling profiler: attached to the recorder so the fleet gather merges
  // every lane's folded stacks. A refused timer/handler degrades to a
  // logged notice and an empty profile, never a failed run.
  if (!flags_.profile.empty()) {
    profiler_ = std::make_unique<obs::SampledProfiler>();
    recorder_.set_profiler(profiler_.get());
    if (!profiler_->start()) {
      std::cout << prefix_ << "profile: sampling unavailable ("
                << profiler_->error() << ")" << std::endl;
    }
  }
  if (!flags_.http_port) return;
  // Live introspection: the round loop publishes seqlock snapshots at round
  // boundaries; the HTTP thread only ever reads the publisher.
  recorder_.set_publisher(&publisher_);
  publisher_.set_info(labels_);
  if (profiler_ != nullptr) {
    // Live view of this rank's own ring, read without draining it (the
    // merged fleet profile only exists after the end-of-run gather).
    obs::SampledProfiler* const prof = profiler_.get();
    const std::string lane =
        recorder_.lane_kind() + ":" + std::to_string(recorder_.lane());
    publisher_.set_profile_source([prof, lane] {
      std::ostringstream folded;
      obs::SampledProfiler::write_folded(folded, prof->collect_folded(lane));
      return folded.str();
    });
  }
  const std::uint16_t base = *flags_.http_port;
  http_ = std::make_unique<obs::HttpServer>(
      publisher_, static_cast<std::uint16_t>(base == 0 ? 0 : base + rank));
  std::cout << prefix_ << "http: listening on port " << http_->port()
            << " (/metrics /status /healthz /api/v1/snapshot /api/v1/runs"
            << (profiler_ != nullptr ? " /api/v1/profile" : "") << ")"
            << std::endl;
}

void ObsSession::run(const std::string& name,
                     const std::function<void()>& body) {
  if (http_ == nullptr) return body();
  publisher_.run_started(name);
  try {
    body();
  } catch (...) {
    // /healthz must answer 503 even when the failure originated here (a
    // TCP abort already flipped it on the peers; idempotent).
    publisher_.run_finished(/*ok=*/false);
    throw;
  }
  publisher_.run_finished(/*ok=*/true);
}

void ObsSession::finish() {
  if (profiler_ != nullptr) profiler_->stop();
  // Every rank merged the fleet's observability blocks, but only rank 0
  // writes: loopback ranks share a working directory.
  if (!flags_.observe() || rank_ != 0) return;
  if (!flags_.metrics.empty()) {
    write_file(flags_.metrics, "metrics", [&](std::ostream& out) {
      recorder_.write_metrics_json(out, labels_);
    });
    std::cout << prefix_ << "metrics: " << flags_.metrics << "\n";
  }
  if (!flags_.trace.empty()) {
    write_file(flags_.trace, "trace", [&](std::ostream& out) {
      recorder_.write_trace_json(out);
    });
    std::cout << prefix_ << "trace: " << flags_.trace << "\n";
  }
  if (!flags_.profile.empty()) {
    // Samples taken after the last drain (output gather, run teardown) are
    // still in the ring; absorb them before writing.
    recorder_.absorb_profiler();
    write_file(flags_.profile, "profile", [&](std::ostream& out) {
      recorder_.write_folded(out);
    });
    std::cout << prefix_ << "profile: " << flags_.profile << " ("
              << recorder_.folded().size() << " stacks)\n";
  }
  if (flags_.stats) recorder_.write_stats_table(std::cout);
  std::cout.flush();
}

std::optional<Fleet> fleet_from_options(const Options& opts) {
  Fleet fleet;
  const long long local = opts.get_int("local", 0);
  DS_CHECK_MSG(local >= 0, "--local=N must be >= 0");
  fleet.local = static_cast<std::size_t>(local);
  if (fleet.local > 0) return fleet;
  const std::string hosts_path = opts.get("hosts", "");
  if (hosts_path.empty()) return std::nullopt;
  fleet.hosts = net::read_hosts_file(hosts_path);
  const long long rank = opts.get_int("rank", 0);
  DS_CHECK_MSG(
      rank >= 0 && static_cast<std::size_t>(rank) < fleet.hosts.size(),
      "--rank must be < the hosts file size (" +
          std::to_string(fleet.hosts.size()) + ")");
  fleet.rank = static_cast<std::size_t>(rank);
  return fleet;
}

int launch(const Fleet& fleet,
           const std::function<int(net::LoopbackRank&&)>& body) {
  if (fleet.local == 0) {
    return body(net::LoopbackRank{fleet.rank, fleet.hosts, net::Socket{}});
  }
  const net::LoopbackReport report =
      net::run_loopback_ranks(fleet.local, body);
  if (report.all_ok()) return 0;
  std::cerr << "error: a rank failed (rank 0 -> " << report.rank0;
  for (std::size_t r = 0; r < report.peer_exit_codes.size(); ++r) {
    std::cerr << ", rank " << (r + 1) << " -> " << report.peer_exit_codes[r];
  }
  std::cerr << ")\n";
  return 2;
}

}  // namespace ds::frontend
