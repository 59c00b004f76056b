#pragma once

/// \file socket.hpp
/// Thin POSIX TCP socket layer of the `net::` subsystem: an RAII fd wrapper
/// and the handful of blocking-with-timeout operations the rendezvous and
/// transport need (listen, accept, connect-with-retry, option knobs). All
/// loops are EINTR-resilient; failures throw ds::CheckError with the
/// operation and errno spelled out.

#include <cstdint>
#include <string>
#include <vector>

namespace ds::net {

/// One rank's address: numeric IPv4/IPv6 literal or resolvable host name,
/// plus the rank's listen port.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// RAII file descriptor (socket). Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1);
  /// Releases ownership without closing.
  int release();

 private:
  int fd_ = -1;
};

/// Binds and listens on `ep` (SO_REUSEADDR, so back-to-back executors can
/// rebind the same rank port). `ep.port` 0 picks an ephemeral port — read it
/// back with `local_endpoint`. Throws on failure.
Socket listen_on(const Endpoint& ep, int backlog = 16);

/// The locally bound address of `fd` (getsockname), numeric form.
Endpoint local_endpoint(int fd);

/// Accepts one connection, waiting at most `timeout_ms`. Throws on timeout
/// or error.
Socket accept_from(int listen_fd, int timeout_ms);

/// Connects to `ep`, retrying with a short backoff until `timeout_ms`
/// elapses — peers of a distributed launch come up in arbitrary order, so
/// "connection refused" just means "not listening yet". Throws on timeout.
/// A client of a server that should already be up passes
/// `refused_grace_ms` >= 0: once every connect has been refused for that
/// long, nothing listens at `ep`, and the call throws "connection refused"
/// instead of waiting out `timeout_ms`. Other errors retry to the deadline.
Socket connect_to(const Endpoint& ep, int timeout_ms,
                  int refused_grace_ms = -1);

/// Disables Nagle (TCP_NODELAY): the round protocol ships one small frame
/// per peer per phase and must not trade its latency for batching.
void set_nodelay(int fd);

/// Switches the fd between blocking (handshake) and nonblocking (round
/// exchange) modes.
void set_nonblocking(int fd, bool nonblocking);

/// Sets SO_RCVTIMEO/SO_SNDTIMEO (0 = never time out). The rendezvous puts
/// a budget on its blocking handshake reads this way, so a peer that
/// connects but never speaks cannot hang the bootstrap.
void set_io_timeouts(int fd, int timeout_ms);

/// Milliseconds on the steady clock — the deadline arithmetic shared by
/// every timed loop in net/.
std::int64_t steady_now_ms();

/// Parses a hosts file: one `host port` pair per line, in rank order;
/// blank lines and `#` comments ignored. Throws on malformed lines.
std::vector<Endpoint> parse_hosts(std::istream& in);

/// `parse_hosts` over a file path, with the path in error messages.
std::vector<Endpoint> read_hosts_file(const std::string& path);

}  // namespace ds::net
