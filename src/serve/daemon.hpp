#pragma once

/// \file daemon.hpp
/// `serve::Daemon` — the resident per-host serving runtime behind
/// `tools/distsplit_serve`. One daemon process per rank of a standing
/// fleet: the instance is loaded once, the TCP mesh rendezvouses once, and
/// registry requests are then served over the standing connections without
/// re-bootstrapping anything per run.
///
/// Roles:
///
///   rank 0    owns the client-facing *request port* (framed kRequest /
///             kResponse, serve/protocol.hpp). An accept thread decodes and
///             enqueues submissions into a bounded FIFO (full queue =>
///             immediate kRejected — backpressure is a clear answer, never
///             a stalled connect); the worker loop pops, validates against
///             the registry, broadcasts the accepted request to the
///             followers as one kDispatch frame, and executes it through
///             `algo::execute` like the one-shot CLI would.
///   rank > 0  blocks in `await_dispatch`, executes each dispatched request
///             through the identical code path (SPMD — the collectives stay
///             in lockstep), and exits cleanly on kShutdown.
///
/// Every served run executes on a `net::TcpNetwork` over the daemon's
/// standing transport. The first request builds the resident executor over
/// the resident instance — its topology and partition — and every later
/// request reuses it with its own ids and seed. With a left/right split the
/// resident graph is the bipartite view's unified graph, so `split` shares
/// that executor. A spec that runs on any other graph gets an executor for
/// that request only.
///
/// Failure policy: any execution failure or dead peer marks the fleet
/// unhealthy (`fleet_ok() == false`, publisher health kAborted). The daemon
/// stays up and answers every subsequent submission kRejected instead of
/// hanging clients — a resident service degrades loudly, it does not wedge.
///
/// Shutdown: `request_shutdown()` (or the config's `stop_requested` poll,
/// wired to the SIGINT/SIGTERM latch by the tool) drains the queued
/// requests, flips health to kDraining (/healthz 503 — load balancers stop
/// routing), answers every connection left in the listen backlog with
/// kRejected "daemon is draining", closes the request port (later connects
/// are refused), broadcasts kShutdown to the followers and returns 0.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "graph/bipartite.hpp"
#include "graph/graph.hpp"
#include "net/socket.hpp"
#include "net/tcp_network.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "serve/request_queue.hpp"

namespace ds::serve {

struct DaemonConfig {
  std::size_t rank = 0;
  /// Rank-ordered fleet endpoints (the standing-mesh rendezvous).
  std::vector<net::Endpoint> hosts;
  /// Optional pre-bound listen socket for `hosts[rank]` (loopback tests).
  net::Socket listen;
  net::TcpOptions transport;

  /// The resident instance; must outlive the daemon. Every rank of the
  /// fleet must load the identical instance — the rendezvous digest
  /// handshake rejects drift.
  const graph::Graph* graph = nullptr;
  /// Left-node count for bipartite-input specs (0 = the instance carries no
  /// left/right split; bipartite submissions are answered kError).
  std::size_t nu = 0;

  /// Rank 0's client-facing request port (0 = kernel-assigned; read it back
  /// with `request_port()`), or a pre-bound listener from a test.
  std::uint16_t request_port = 0;
  net::Socket request_listen;

  std::size_t queue_capacity = 16;
  /// Per-client IO budget on the accept path (a half-connected client must
  /// not stall the accept thread).
  int client_timeout_ms = 5000;
  /// Idle poll slice of the worker / follower loops: bounds the latency of
  /// shutdown-latch and fleet-liveness checks.
  int idle_poll_ms = 200;

  /// External shutdown poll (the tool wires the signal latch in here);
  /// `request_shutdown()` works regardless.
  std::function<bool()> stop_requested;

  /// Optional instruments, owned by the tool. The recorder instruments
  /// every served run (fleet observability agreement included) and ends
  /// each holding fleet totals; rank 0's also holds the `serve.*` metrics.
  /// The publisher carries health, run history and the serve metrics to
  /// the embedded HTTP server.
  obs::Recorder* recorder = nullptr;
  obs::SnapshotPublisher* publisher = nullptr;
};

class Daemon {
 public:
  /// Connects the standing fleet (blocks until every rank's handshake went
  /// through or the rendezvous times out). Rank 0 also binds the request
  /// port before rendezvousing, so clients can start connecting while the
  /// fleet comes up.
  explicit Daemon(DaemonConfig config);

  /// Stops the accept thread if `run()` never got to (or died before)
  /// joining it.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until shutdown. Returns the process exit code: 0 on a clean
  /// drain (rank 0) or a received kShutdown (follower). Throws when the
  /// standing mesh dies under a follower — the tool maps that to exit 2.
  int run();

  /// Flips the shutdown latch (thread-safe; callable from any thread).
  void request_shutdown() { stop_.store(true, std::memory_order_release); }

  /// The bound client port (valid on rank 0 after construction).
  [[nodiscard]] std::uint16_t request_port() const { return request_port_; }

  /// False once a run failed or a peer died; all later submissions are
  /// rejected.
  [[nodiscard]] bool fleet_ok() const {
    return fleet_ok_.load(std::memory_order_acquire);
  }

  struct Stats {
    std::uint64_t served = 0;    ///< kOk responses
    std::uint64_t failed = 0;    ///< kError responses (validation or run)
    std::uint64_t rejected = 0;  ///< kRejected responses (accept path)
    std::uint64_t cache_hits = 0;    ///< requests that reused an executor
    std::uint64_t cache_misses = 0;  ///< executors built
  };
  /// Counters snapshot; exact once `run()` returned, approximate while
  /// serving.
  [[nodiscard]] Stats stats() const;

 private:
  int run_rank0();
  int run_follower();
  void accept_loop();
  /// Admits every connection waiting in the listen backlog, without
  /// blocking.
  void admit_backlog();
  /// Reads one accepted client's submission, then queues it or answers it
  /// (kError for garbage, kRejected when draining, unhealthy or full).
  void admit(net::Socket client);
  /// Validates, dispatches and executes one accepted submission (rank 0).
  void serve_one(PendingRequest pending);
  /// The shared execution path: identical on rank 0 and followers.
  algo::Result execute_request(const algo::Spec& spec, const Request& req);
  /// The executor a run over `g` gets: the resident one (built on first
  /// use) for the resident instance, else one for this request only.
  std::shared_ptr<local::Executor> executor_for(const graph::Graph& g);
  /// Best-effort kResponse on `client`; a vanished client is dropped.
  void respond(net::Socket& client, const Response& resp);
  [[nodiscard]] bool stopping() const;
  void mark_fleet_broken(const std::string& why);

  DaemonConfig config_;
  graph::BipartiteGraph bipartite_;  ///< views config.graph when nu > 0
  net::Socket request_listener_;     ///< rank 0's client port
  std::uint16_t request_port_ = 0;
  net::TcpTransport transport_;
  /// The resident instance's executor; null until the first request.
  std::shared_ptr<net::TcpNetwork> resident_;
  RequestQueue queue_;

  std::thread accept_thread_;
  std::atomic<bool> accept_stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> fleet_ok_{true};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> executor_reuses_{0};
  std::atomic<std::uint64_t> executor_builds_{0};

  // Serve metrics (single-writer: only the worker loop touches them; the
  // accept path's rejections live in the queue/rejected_ atomics and are
  // sampled into the gauge by the worker).
  obs::Counter requests_total_;
  obs::Histogram request_latency_us_;
  obs::Gauge queue_depth_;
  obs::Gauge rejected_gauge_;
};

}  // namespace ds::serve
