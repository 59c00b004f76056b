/// \file distsplit_rank.cpp
/// Multi-host rank launcher: runs one rank of a TCP-distributed LOCAL
/// algorithm (or, with --local=N, a whole loopback fleet on this machine —
/// the quickest way to smoke-test the wire path without a cluster). The
/// algorithm is any distributed-capable entry of the algorithm registry
/// (`distsplit_cli list`); there is no per-algorithm code in this tool.
///
/// Multi-host usage — run once per hosts-file line, anywhere the hosts
/// resolve, in any order (the rendezvous retries until the fleet is up):
///
///     distsplit_rank --hosts=hosts.txt --rank=R
///         (--input=graph.txt | --graph=FILE.dsg | --gen=SPEC)
///         [--materialize] [--algo=NAME] [--seed=S] [--param=key=value ...]
///         [--metrics=FILE] [--trace=FILE] [--stats]
///         [--profile=FILE] [--http-port=P] [--event-cap=N]
///
/// The source, observability and launch flags are the shared front end's
/// (tools/frontend.hpp). --gen runs the billion-edge *in-situ scale path*
/// by default: every rank generates only its own node range and no process
/// ever materializes the whole topology (net/insitu_runner.hpp). With
/// --materialize the same instance is fully generated in memory and run
/// through the classic path instead — the RSS-comparison control, and the
/// fallback for algorithms without in-situ hooks.
///
/// hosts.txt: one `host port` per line, line i = rank i; `#` comments and
/// blank lines ignored. Every rank must name the same instance, seed and
/// algorithm — the rendezvous digest handshake rejects launches that
/// disagree about the instance, the seed or the `ids` parameter. Each rank
/// process rendezvouses once; every executor the algorithm builds (one per
/// call, all its trials included) runs over that one connection.
///
/// Loopback mode — spawns all N ranks as processes on 127.0.0.1 with
/// kernel-assigned ports (rank 0 in this process):
///
///     distsplit_rank --local=N --input=graph.txt [--algo=...] [--seed=S]
///
/// Results are gathered to rank 0 and re-broadcast, so every rank prints
/// the same summary (prefixed with its rank). Exit code 0 on success, 2 on
/// a failed run (abort, dead peer, bad usage).

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "frontend.hpp"
#include "graph/insitu.hpp"
#include "net/insitu_runner.hpp"
#include "net/loopback.hpp"
#include "net/rendezvous.hpp"
#include "net/tcp_network.hpp"
#include "serve/signal.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

namespace {

using namespace ds;

int usage() {
  std::cerr << "usage: distsplit_rank "
               "(--input=FILE | --graph=FILE.dsg | --gen=SPEC)\n"
               "         (--hosts=FILE --rank=R | --local=N)\n"
               "         [--materialize] [--algo=NAME] [--seed=S] "
               "[--param=key=value ...]\n"
               "         [--metrics=FILE] [--trace=FILE] [--stats]\n"
               "         [--profile=FILE] [--http-port=P] [--event-cap=N]\n"
               "algorithms (distributed-capable registry entries):\n"
            << algo::names_listing(/*scalable_only=*/true);
  return 2;
}

/// The flags this launcher understands itself; anything else must be an
/// algorithm parameter passed as --param=key=value (silently dropping a
/// typo'd or stale flag would change the run's meaning).
const std::vector<std::string> kRankFlags = {
    "input",   "graph", "gen",   "materialize", "hosts",     "rank",
    "local",   "algo",  "seed",  "param",       "metrics",   "trace",
    "stats",   "http-port", "event-cap", "profile",
};

/// The registry spec, its parameters and the instance every rank runs.
struct RankPlan {
  const algo::Spec* spec = nullptr;
  algo::Params params;
  std::uint64_t seed = 1;
  frontend::Instance instance;
  /// Set by --gen without --materialize: run net::run_insitu, and nothing
  /// of the instance is materialized in this process.
  std::optional<graph::GenSpec> insitu;
};

RankPlan resolve(const Options& opts) {
  RankPlan plan;
  plan.spec = &algo::find(opts.get("algo", "mis"));
  DS_CHECK_MSG(plan.spec->capability == algo::Capability::kAnyRuntime,
               "algorithm '" + plan.spec->name +
                   "' is sequential-only and cannot run on a rank fleet");
  plan.params = algo::Params::parse(
      plan.spec->params, algo::parse_param_overrides(opts.get_all("param")));
  plan.seed = opts.seed();
  if (frontend::instance_source(opts) == frontend::Source::kGen &&
      !opts.has("materialize")) {
    DS_CHECK_MSG(plan.spec->insitu != nullptr,
                 "--gen without --materialize runs in-situ, and "
                 "algorithm '" + plan.spec->name +
                     "' has no in-situ hooks (add --materialize)");
    DS_CHECK_MSG(plan.spec->input == algo::InputKind::kGeneralGraph,
                 "in-situ: --algo=" + plan.spec->name +
                     " consumes a bipartite instance; the scale path "
                     "runs general-graph specs only (add --materialize)");
    plan.insitu = graph::GenSpec::parse(opts.get("gen", ""));
  } else {
    plan.instance = frontend::load_instance(opts, plan.spec->input,
                                            "--algo=" + plan.spec->name);
  }
  return plan;
}

/// The handshake digests of a materialized launch: the launch digest
/// (structure, seed, `ids`) and the structure digest, which fixes the
/// partition for the handshaken rank count.
net::InstanceDigests launch_digests(const RankPlan& plan) {
  const frontend::Instance& inst = plan.instance;
  const std::uint64_t structure =
      plan.spec->input == algo::InputKind::kGeneralGraph
          ? net::structure_digest(inst.graph, inst.nu)
          : net::structure_digest(inst.bipartite.unified(),
                                  inst.bipartite.num_left());
  const bool has_ids =
      std::any_of(plan.spec->params.begin(), plan.spec->params.end(),
                  [](const algo::ParamSpec& p) { return p.key == "ids"; });
  return {net::launch_digest(structure, plan.seed,
                             has_ids ? plan.params.get("ids") : ""),
          structure};
}

/// One rank's full run: connect this rank's fleet once, then execute the
/// registry spec on executors over that transport. Returns the process
/// exit code.
int run_rank(const RankPlan& plan, const frontend::ObsFlags& obs_flags,
             net::LoopbackRank&& lr) {
  const std::size_t rank = lr.rank;
  const std::size_t nranks = lr.hosts.size();
  const std::string prefix =
      "[rank " + std::to_string(rank) + "/" + std::to_string(nranks) + "] ";
  frontend::ObsSession session(
      obs_flags, rank, prefix,
      {{"tool", "distsplit_rank"},
       {"algo", plan.spec->name},
       {"runtime", std::string(plan.insitu ? "insitu-tcp(" : "tcp(") +
                       std::to_string(nranks) + " ranks)"},
       {"rank", std::to_string(rank)},
       {"seed", std::to_string(plan.seed)}});
  obs::Recorder* const rec = session.recorder();
  std::string brief;
  session.run(plan.spec->name, [&] {
    if (plan.insitu) {
      // Scale path: nothing of the instance exists yet in this process;
      // the runner generates this rank's range behind the rendezvous.
      net::InsituConfig config;
      config.rank = rank;
      config.hosts = std::move(lr.hosts);
      config.listen = std::move(lr.listen);
      brief = net::run_insitu(*plan.spec, plan.params, plan.seed,
                              *plan.insitu, std::move(config), rec)
                  .brief();
      return;
    }
    net::TcpTransport transport(rank, lr.hosts, launch_digests(plan), {},
                                std::move(lr.listen));
    algo::RunContext ctx;
    ctx.seed = plan.seed;
    ctx.params = plan.params;
    ctx.sequential_runtime = false;
    ctx.recorder = rec;
    ctx.factory = [&](const graph::Graph& g) {
      auto exec = std::make_shared<net::TcpNetwork>(g, transport);
      exec->set_recorder(rec);
      return exec;
    };
    if (plan.spec->input == algo::InputKind::kGeneralGraph) {
      ctx.graph = &plan.instance.graph;
    } else {
      ctx.bipartite = &plan.instance.bipartite;
    }
    brief = algo::execute(*plan.spec, ctx).brief();
  });
  // Explicit flush: loopback child ranks leave via _exit, skipping stdio
  // teardown, and their summary must not die in a buffer with them.
  std::cout << prefix << plan.spec->name << ": " << brief << std::endl;
  session.finish();
  if (serve::shutdown_requested()) {
    // The latch swallowed a SIGINT/SIGTERM so the collectives could finish
    // instead of tearing the fleet mid-exchange; the run is complete, so a
    // clean exit 0 is the graceful answer.
    std::cout << prefix
              << "shutdown requested; exiting after the in-flight run"
              << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Latch SIGINT/SIGTERM instead of dying mid-collective: an interrupted
    // rank would otherwise tear the whole fleet down as a peer-lost abort.
    serve::install_shutdown_handler();
    // Options skips argv[0] itself; this tool has no subcommand word.
    const Options opts(argc, argv);
    frontend::check_flags(opts, kRankFlags);
    const std::optional<frontend::Fleet> fleet =
        frontend::fleet_from_options(opts);
    if (!fleet) return usage();
    const frontend::ObsFlags obs_flags(opts, fleet->max_rank());
    const RankPlan plan = resolve(opts);
    return frontend::launch(*fleet, [&](net::LoopbackRank&& lr) {
      return run_rank(plan, obs_flags, std::move(lr));
    });
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
