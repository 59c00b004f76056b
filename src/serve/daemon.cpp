#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <iostream>
#include <utility>

#include "graph/format.hpp"
#include "net/frame.hpp"
#include "net/rendezvous.hpp"
#include "support/check.hpp"

namespace ds::serve {

namespace {

/// How long a latched follower waits for rank 0's kShutdown after the last
/// sign of life (a dispatch) before leaving the mesh on its own.
constexpr std::int64_t kFollowerGraceMs = 5000;

const graph::Graph& checked_instance(const DaemonConfig& config) {
  DS_CHECK_MSG(config.graph != nullptr,
               "serve::Daemon needs a resident instance (config.graph)");
  DS_CHECK_MSG(!config.hosts.empty(),
               "serve::Daemon: the hosts list must name at least one rank");
  DS_CHECK_MSG(config.rank < config.hosts.size(),
               "serve::Daemon: rank must be < the hosts list size");
  return *config.graph;
}

net::InstanceDigests serve_digests(const DaemonConfig& config) {
  const std::uint64_t d =
      net::structure_digest(checked_instance(config), config.nu);
  // Both handshake slots carry the structure digest: rank 0 dispatches each
  // run's seed and parameters, and the partition follows from the
  // structure and the rank count — but every rank must still have loaded
  // the identical instance.
  return net::InstanceDigests{d, d};
}

net::Socket bind_request_port(DaemonConfig& config) {
  if (config.rank != 0) return {};
  if (config.request_listen.valid()) return std::move(config.request_listen);
  // A full backlog drops SYNs, and a dropped client retries only after a
  // second; a client burst must land in the backlog instead.
  return net::listen_on(net::Endpoint{"0.0.0.0", config.request_port},
                        SOMAXCONN);
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      request_listener_(bind_request_port(config_)),
      transport_(config_.rank, config_.hosts, serve_digests(config_),
                 config_.transport, std::move(config_.listen)),
      queue_(config_.queue_capacity) {
  DS_CHECK_MSG(config_.queue_capacity >= 1,
               "serve::Daemon: queue capacity must be >= 1");
  if (request_listener_.valid()) {
    request_port_ = net::local_endpoint(request_listener_.fd()).port;
    // Nonblocking: a connection reset between poll and accept must not
    // block the accept thread, and the drain sweeps until EAGAIN.
    net::set_nonblocking(request_listener_.fd(), true);
  }
  if (config_.nu > 0) {
    // One resident graph for both input kinds: `split` runs on the view's
    // unified graph, which shares config.graph's image.
    bipartite_ = graph::bipartite_from_unified(*config_.graph, config_.nu);
    config_.graph = &bipartite_.unified();
  }
  // Register the serve metrics up front: the registry seals against new
  // names at the first publish, and re-finding them later is then legal
  // while first registration would not be.
  if (config_.rank == 0 && config_.recorder != nullptr) {
    obs::Metrics& m = config_.recorder->metrics();
    requests_total_ = m.counter("serve.requests");
    request_latency_us_ = m.histogram("serve.request.latency.us");
    queue_depth_ = m.gauge("serve.queue.depth");
    rejected_gauge_ = m.gauge("serve.rejected");
  }
}

Daemon::~Daemon() {
  accept_stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
}

int Daemon::run() { return config_.rank == 0 ? run_rank0() : run_follower(); }

bool Daemon::stopping() const {
  if (stop_.load(std::memory_order_acquire)) return true;
  return config_.stop_requested && config_.stop_requested();
}

void Daemon::mark_fleet_broken(const std::string& why) {
  bool was_ok = true;
  if (!fleet_ok_.compare_exchange_strong(was_ok, false,
                                         std::memory_order_acq_rel)) {
    return;  // already broken; keep the first reason
  }
  std::cerr << "serve: fleet unhealthy: " << why << "\n";
  if (config_.publisher != nullptr) {
    config_.publisher->set_health(obs::Health::kAborted);
  }
}

int Daemon::run_rank0() {
  accept_thread_ = std::thread([this] { accept_loop(); });
  PendingRequest pending;
  while (!stopping()) {
    if (!queue_.pop_wait(pending, config_.idle_poll_ms)) {
      // Idle tick: probe the standing connections so a dead follower flips
      // health *now*, not on the next submission's round timeout.
      if (fleet_ok()) {
        std::string why;
        if (!transport_.peers_alive(&why)) mark_fleet_broken(why);
      }
      continue;
    }
    serve_one(std::move(pending));
  }

  // Drain: the accept thread rejects from here on ("daemon is draining"),
  // requests already accepted are still served, then the followers are
  // released and the health endpoint stays 503 until exit.
  draining_.store(true, std::memory_order_release);
  queue_.close();
  if (config_.publisher != nullptr) {
    config_.publisher->set_health(obs::Health::kDraining);
  }
  while (queue_.try_pop(pending)) serve_one(std::move(pending));
  accept_stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connections that reached the backlog after the accept thread's last
  // sweep would otherwise wait out their client timeouts: refuse them
  // ("daemon is draining"), then close the port so later connects fail.
  admit_backlog();
  request_listener_.reset();
  if (fleet_ok()) {
    try {
      transport_.dispatch(net::FrameType::kShutdown, {});
    } catch (const std::exception& e) {
      // A follower died while we drained; we are exiting regardless.
      std::cerr << "serve: shutdown broadcast failed: " << e.what() << "\n";
    }
  }
  return 0;
}

int Daemon::run_follower() {
  std::vector<std::uint64_t> payload;
  std::int64_t latch_deadline_ms = -1;
  while (true) {
    if (latch_deadline_ms < 0 && stopping()) {
      // A follower cannot leave unilaterally — the standing mesh would
      // break under rank 0 — so give rank 0 a grace window to drain and
      // broadcast kShutdown before exiting anyway.
      latch_deadline_ms = net::steady_now_ms() + kFollowerGraceMs;
    }
    if (latch_deadline_ms >= 0 && net::steady_now_ms() >= latch_deadline_ms) {
      return 0;
    }
    const auto event = transport_.await_dispatch(payload, config_.idle_poll_ms);
    if (event == net::TcpTransport::DispatchEvent::kTimeout) continue;
    if (event == net::TcpTransport::DispatchEvent::kShutdown) return 0;
    // A dispatch proves rank 0 is alive and still draining accepted work
    // (e.g. a whole-process-group SIGINT with a deep queue), so the grace
    // window restarts: the fixed deadline only fires after rank 0 has gone
    // silent, never mid-drain.
    latch_deadline_ms = -1;
    // Rank 0 validated before dispatching, so resolution failures here mean
    // registry drift between the fleet's binaries — a hard error.
    const Request request = decode_request(payload.data(), payload.size());
    const algo::Spec& spec = algo::find(request.algo);
    execute_request(spec, request);
  }
}

void Daemon::accept_loop() {
  while (!accept_stop_.load(std::memory_order_acquire)) {
    pollfd pfd{request_listener_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, config_.idle_poll_ms) > 0) admit_backlog();
  }
}

void Daemon::admit_backlog() {
  for (;;) {
    const int fd = ::accept(request_listener_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      admit(net::Socket(fd));
    } else if (errno != EINTR && errno != ECONNABORTED) {
      return;  // EAGAIN: the backlog is empty
    }
  }
}

void Daemon::admit(net::Socket client) {
  PendingRequest pending;
  pending.client = std::move(client);
  pending.accepted_ms = net::steady_now_ms();
  // Some platforms hand out accepted sockets with the listener's
  // O_NONBLOCK; the request read below relies on blocking IO timeouts.
  net::set_nonblocking(pending.client.fd(), false);
  net::set_nodelay(pending.client.fd());
  net::set_io_timeouts(pending.client.fd(), config_.client_timeout_ms);
  try {
    const net::Frame frame =
        net::read_frame(pending.client.fd(), "serve request");
    DS_CHECK_MSG(frame.header.type ==
                     static_cast<std::uint32_t>(net::FrameType::kRequest),
                 "serve request: unexpected frame type " +
                     std::to_string(frame.header.type));
    pending.request =
        decode_request(frame.payload.data(), frame.payload.size());
  } catch (const std::exception& e) {
    // A garbage or half-connected client must never take the daemon
    // down — answer what we can and move on.
    Response resp;
    resp.status = Status::kError;
    resp.brief = e.what();
    respond(pending.client, resp);
    return;
  }

  if (!draining_.load(std::memory_order_acquire) && fleet_ok() &&
      queue_.try_push(std::move(pending))) {
    return;
  }
  // Why it was refused is read after the push: a push that failed because
  // the drain closed the queue meanwhile is answered "draining" too.
  // Backpressure is an immediate, explicit answer — the accept thread never
  // blocks on a full queue. (A failed try_push leaves `pending` intact, so
  // the client socket is still ours to answer on.)
  Response reject;
  reject.id = pending.request.id;
  reject.status = Status::kRejected;
  if (draining_.load(std::memory_order_acquire)) {
    reject.brief = "daemon is draining";
  } else if (!fleet_ok()) {
    reject.brief = "fleet unhealthy: serving is disabled";
  } else {
    reject.brief =
        "queue full (capacity " + std::to_string(queue_.capacity()) + ")";
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  respond(pending.client, reject);
}

algo::Result Daemon::execute_request(const algo::Spec& spec,
                                     const Request& req) {
  algo::RunContext ctx;
  ctx.seed = req.seed;
  ctx.params = algo::Params::parse(spec.params, req.params);
  ctx.sequential_runtime = false;
  ctx.recorder = config_.recorder;
  ctx.factory = [this](const graph::Graph& g) { return executor_for(g); };
  if (spec.input == algo::InputKind::kGeneralGraph) {
    ctx.graph = config_.graph;
  } else {
    ctx.bipartite = &bipartite_;
  }
  return algo::execute(spec, ctx);
}

std::shared_ptr<local::Executor> Daemon::executor_for(const graph::Graph& g) {
  if (&g == config_.graph && resident_ != nullptr) {
    executor_reuses_.fetch_add(1, std::memory_order_relaxed);
    return resident_;
  }
  auto exec = std::make_shared<net::TcpNetwork>(g, transport_);
  exec->set_recorder(config_.recorder);
  executor_builds_.fetch_add(1, std::memory_order_relaxed);
  if (&g == config_.graph) resident_ = exec;
  return exec;
}

void Daemon::serve_one(PendingRequest pending) {
  const Request& req = pending.request;
  Response resp;
  resp.id = req.id;

  // Validate *before* dispatching: an invalid submission must never reach
  // the followers (they would fail it and tear the standing mesh down).
  const algo::Spec* spec = algo::try_find(req.algo);
  std::string invalid;
  if (spec == nullptr) {
    invalid = "unknown algorithm '" + req.algo + "'";
    const std::string hint = algo::suggest(req.algo, algo::spec_names());
    if (!hint.empty()) invalid += "; did you mean '" + hint + "'?";
  } else if (spec->capability != algo::Capability::kAnyRuntime) {
    invalid = "algorithm '" + spec->name +
              "' is sequential-only and cannot run on a serve fleet";
  } else if (spec->input == algo::InputKind::kBipartiteGraph &&
             config_.nu == 0) {
    invalid = "algorithm '" + spec->name +
              "' needs a bipartite instance, but the resident instance "
              "carries no left/right split";
  } else {
    try {
      algo::Params::parse(spec->params, req.params);
    } catch (const std::exception& e) {
      invalid = e.what();
    }
  }

  if (!invalid.empty()) {
    resp.status = Status::kError;
    resp.brief = invalid;
    failed_.fetch_add(1, std::memory_order_relaxed);
  } else if (!fleet_ok()) {
    resp.status = Status::kRejected;
    resp.brief = "fleet unhealthy: serving is disabled";
    rejected_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (config_.publisher != nullptr) {
      config_.publisher->run_started(
          spec->name + " seed=" + std::to_string(req.seed),
          params_digest(req.params));
    }
    bool ok = false;
    try {
      transport_.dispatch(net::FrameType::kDispatch, encode_request(req));
      const algo::Result result = execute_request(*spec, req);
      resp.status = Status::kOk;
      resp.output_digest = result.output_digest();
      resp.rounds = result.executed_rounds;
      resp.brief = result.brief();
      ok = true;
      served_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      // The fleet collectives are torn (the abort went out on the standing
      // connections); this daemon keeps answering, but only with
      // rejections.
      resp.status = Status::kError;
      resp.brief = e.what();
      failed_.fetch_add(1, std::memory_order_relaxed);
      mark_fleet_broken(e.what());
    }
    if (config_.publisher != nullptr) {
      config_.publisher->run_finished(ok, resp.output_digest);
      if (draining_.load(std::memory_order_acquire)) {
        config_.publisher->set_health(obs::Health::kDraining);
      } else if (!fleet_ok()) {
        config_.publisher->set_health(obs::Health::kAborted);
      }
    }
  }

  const std::int64_t elapsed_ms =
      std::max<std::int64_t>(0, net::steady_now_ms() - pending.accepted_ms);
  resp.wall_us = static_cast<std::uint64_t>(elapsed_ms) * 1000;
  // Between runs: the next run's obs block starts after these, so the
  // followers never receive rank 0's serve counters.
  requests_total_.add(1);
  request_latency_us_.record(resp.wall_us);
  queue_depth_.set(queue_.depth());
  rejected_gauge_.set(rejected_.load(std::memory_order_relaxed));
  if (config_.recorder != nullptr && config_.publisher != nullptr) {
    // Republish so a scrape right after the response sees this request in
    // the serve counters (the run's own publishes predate the increment).
    config_.recorder->publish_round(resp.rounds);
  }
  respond(pending.client, resp);
}

void Daemon::respond(net::Socket& client, const Response& resp) {
  if (!client.valid()) return;
  try {
    const std::vector<std::uint64_t> payload = encode_response(resp);
    net::write_frame(client.fd(), net::FrameType::kResponse, /*seq=*/0,
                     payload.data(), payload.size(), "serve response");
  } catch (const std::exception&) {
    // The client went away; its request was still served.
  }
  client.reset();
}

Daemon::Stats Daemon::stats() const {
  Stats s;
  s.served = served_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.cache_hits = executor_reuses_.load(std::memory_order_relaxed);
  s.cache_misses = executor_builds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ds::serve
