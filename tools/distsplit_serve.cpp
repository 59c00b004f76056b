/// \file distsplit_serve.cpp
/// Resident serving daemon: loads an instance once, rendezvouses a standing
/// TCP fleet once, then serves registry submissions (`distsplit_cli
/// submit`) over the standing connections until told to stop — no
/// per-request process launch, rendezvous, or re-partitioning: the first
/// request builds the executor, and every later one reuses it.
///
/// Multi-host usage — run once per hosts-file line, like distsplit_rank:
///
///     distsplit_serve (--input=graph.txt | --graph=FILE.dsg | --gen=SPEC)
///         --hosts=hosts.txt --rank=R
///         [--port=P] [--queue-cap=N] [--seed=S]
///         [--metrics=FILE] [--trace=FILE] [--stats]
///         [--profile=FILE] [--http-port=P] [--event-cap=N]
///
/// Rank 0 prints `serve: listening on port P` once the fleet is up and
/// accepts framed requests on that port (serve/protocol.hpp); the other
/// ranks execute the dispatched runs in lockstep. --seed is the *instance*
/// seed (--gen); each submission carries its own run seed.
///
/// Loopback mode — the whole fleet as forked processes on 127.0.0.1:
///
///     distsplit_serve --local=N --input=graph.txt [--port=P]
///
/// The observability flags are the shared front end's (tools/frontend.hpp):
/// every served run records into one session, and at exit rank 0 writes
/// the fleet totals of all served runs (--metrics, --trace, --profile,
/// --stats). The live endpoints (--http-port) add the serve counters and
/// the served-run history ring.
///
/// Shutdown: SIGINT/SIGTERM drains the accepted requests, answers further
/// submissions `kRejected` ("daemon is draining", /healthz 503), releases
/// the follower ranks with a kShutdown broadcast, and exits 0.

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "frontend.hpp"
#include "net/loopback.hpp"
#include "serve/daemon.hpp"
#include "serve/signal.hpp"
#include "support/options.hpp"

namespace {

using namespace ds;

int usage() {
  std::cerr << "usage: distsplit_serve "
               "(--input=FILE | --graph=FILE.dsg | --gen=SPEC)\n"
               "         (--hosts=FILE --rank=R | --local=N)\n"
               "         [--port=P] [--queue-cap=N] [--seed=S]\n"
               "         [--metrics=FILE] [--trace=FILE] [--stats]\n"
               "         [--profile=FILE] [--http-port=P] [--event-cap=N]\n"
               "submissions name any distributed-capable registry entry:\n"
            << algo::names_listing(/*scalable_only=*/true);
  return 2;
}

const std::vector<std::string> kServeFlags = {
    "input",   "graph", "gen",       "hosts",     "rank",
    "local",   "seed",  "port",      "queue-cap", "metrics",
    "trace",   "stats", "profile",   "http-port", "event-cap",
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    serve::install_shutdown_handler();
    frontend::check_flags(opts, kServeFlags,
                          "(per-run parameters travel with each submission)");
    const std::optional<frontend::Fleet> fleet =
        frontend::fleet_from_options(opts);
    if (!fleet) return usage();
    const frontend::ObsFlags obs_flags(opts, fleet->max_rank());
    const std::uint16_t port = frontend::port_flag(opts, "port");
    const std::size_t queue_capacity =
        frontend::capacity_flag(opts, "queue-cap", 16);
    // The resident instance is always the unified graph, plus the left-node
    // count when the source carries a bipartite split (so bipartite-input
    // specs can be served too).
    const frontend::Instance instance = frontend::load_instance(
        opts, algo::InputKind::kGeneralGraph, "distsplit_serve");
    return frontend::launch(*fleet, [&](net::LoopbackRank&& lr) {
      const std::string prefix = "[rank " + std::to_string(lr.rank) + "/" +
                                 std::to_string(lr.hosts.size()) + "] ";
      frontend::ObsSession session(
          obs_flags, lr.rank, prefix,
          {{"tool", "distsplit_serve"},
           {"runtime",
            "serve-tcp(" + std::to_string(lr.hosts.size()) + " ranks)"},
           {"rank", std::to_string(lr.rank)}});
      serve::DaemonConfig config;
      config.rank = lr.rank;
      config.hosts = std::move(lr.hosts);
      config.listen = std::move(lr.listen);
      config.graph = &instance.graph;
      config.nu = instance.nu;
      config.request_port = port;
      config.queue_capacity = queue_capacity;
      config.stop_requested = [] { return serve::shutdown_requested(); };
      config.recorder = session.recorder();
      config.publisher = session.publisher();
      serve::Daemon daemon(std::move(config));
      if (lr.rank == 0) {
        // The line scripts and CI wait for before submitting. Explicit
        // flush: the daemon lives until a signal, and the port must not sit
        // in a stdio buffer meanwhile.
        std::cout << "serve: listening on port " << daemon.request_port()
                  << std::endl;
      }
      const int code = daemon.run();
      session.finish();
      const serve::Daemon::Stats stats = daemon.stats();
      std::cout << prefix << "serve: exiting (" << stats.served
                << " served, " << stats.failed << " failed, "
                << stats.rejected << " rejected, executor reuse "
                << stats.cache_hits << " hits / " << stats.cache_misses
                << " misses)" << std::endl;
      return code;
    });
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
