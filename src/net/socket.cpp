#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace ds::net {

namespace {

std::string errno_str() { return std::strerror(errno); }

std::string ep_str(const Endpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

/// getaddrinfo over host/port; returns the resolved list. Throws on failure.
struct AddrList {
  addrinfo* head = nullptr;
  ~AddrList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

void resolve(const Endpoint& ep, bool passive, AddrList& out) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string port = std::to_string(ep.port);
  const char* node =
      (passive && ep.host.empty()) ? nullptr : ep.host.c_str();
  const int rc = ::getaddrinfo(node, port.c_str(), &hints, &out.head);
  DS_CHECK_MSG(rc == 0, "cannot resolve " + ep_str(ep) + ": " +
                            ::gai_strerror(rc));
}

}  // namespace

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Socket::~Socket() {
  if (fd_ >= 0) ::close(fd_);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void Socket::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

Socket listen_on(const Endpoint& ep, int backlog) {
  AddrList addrs;
  resolve(ep, /*passive=*/true, addrs);
  std::string last_error = "no addresses";
  for (const addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    Socket s(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!s.valid()) {
      last_error = "socket: " + errno_str();
      continue;
    }
    const int one = 1;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(s.fd(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last_error = "bind: " + errno_str();
      continue;
    }
    if (::listen(s.fd(), backlog) != 0) {
      last_error = "listen: " + errno_str();
      continue;
    }
    return s;
  }
  DS_CHECK_MSG(false, "cannot listen on " + ep_str(ep) + " (" + last_error +
                          ")");
  return Socket{};  // unreachable; fail_check above throws
}

Endpoint local_endpoint(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  DS_CHECK_MSG(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
                   0,
               "getsockname: " + errno_str());
  char host[NI_MAXHOST];
  char serv[NI_MAXSERV];
  const int rc = ::getnameinfo(reinterpret_cast<sockaddr*>(&addr), len, host,
                               sizeof(host), serv, sizeof(serv),
                               NI_NUMERICHOST | NI_NUMERICSERV);
  DS_CHECK_MSG(rc == 0, std::string("getnameinfo: ") + ::gai_strerror(rc));
  return {host, static_cast<std::uint16_t>(std::stoi(serv))};
}

Socket accept_from(int listen_fd, int timeout_ms) {
  // Nonblocking listener: poll() may report a connection that the kernel
  // drops (RST while queued) before accept() runs — a blocking accept
  // would then sleep past the deadline, waiting for a connection that may
  // never come.
  set_nonblocking(listen_fd, true);
  const std::int64_t deadline = steady_now_ms() + timeout_ms;
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const std::int64_t left = deadline - steady_now_ms();
    DS_CHECK_MSG(left > 0, "accept timed out after " +
                               std::to_string(timeout_ms) +
                               " ms waiting for a peer to connect");
    const int rc = ::poll(&pfd, 1, static_cast<int>(left));
    if (rc < 0) {
      DS_CHECK_MSG(errno == EINTR, "poll(accept): " + errno_str());
      continue;
    }
    if (rc == 0) continue;  // deadline re-checked at the top
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // ECONNABORTED/EINTR: a half-open connection died in the queue — keep
      // waiting for a real one.
      DS_CHECK_MSG(errno == EINTR || errno == ECONNABORTED ||
                       errno == EAGAIN || errno == EWOULDBLOCK,
                   "accept: " + errno_str());
      continue;
    }
    return Socket(fd);
  }
}

Socket connect_to(const Endpoint& ep, int timeout_ms, int refused_grace_ms) {
  const std::int64_t deadline = steady_now_ms() + timeout_ms;
  std::string last_error;
  std::int64_t refused_since = -1;  // start of the current refused streak
  for (;;) {
    bool refused = true;  // every address of this pass refused
    AddrList addrs;
    try {
      resolve(ep, /*passive=*/false, addrs);
    } catch (const CheckError& e) {
      // Transient resolution failures (DNS record still propagating,
      // EAI_AGAIN) are as retryable as "connection refused": the peer may
      // simply not be up yet.
      last_error = e.what();
      addrs.head = nullptr;
      refused = false;
    }
    for (const addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
      Socket s(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
      if (!s.valid()) {
        last_error = "socket: " + errno_str();
        refused = false;
        continue;
      }
      // Nonblocking connect + poll: a blocking connect toward a
      // firewall-dropped address sits in SYN retransmission for the kernel
      // default (minutes), blowing way past the caller's budget.
      set_nonblocking(s.fd(), true);
      int rc;
      do {
        rc = ::connect(s.fd(), ai->ai_addr, ai->ai_addrlen);
      } while (rc != 0 && errno == EINTR);
      if (rc != 0 && errno == EINPROGRESS) {
        pollfd pfd{s.fd(), POLLOUT, 0};
        const std::int64_t left = deadline - steady_now_ms();
        const int ready =
            left > 0 ? ::poll(&pfd, 1, static_cast<int>(left)) : 0;
        int err = ETIMEDOUT;
        if (ready > 0) {
          socklen_t len = sizeof(err);
          ::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
        }
        rc = (err == 0) ? 0 : -1;
        errno = err;
      }
      if (rc == 0) {
        set_nonblocking(s.fd(), false);  // callers expect a blocking fd
        return s;
      }
      if (errno != ECONNREFUSED) refused = false;
      last_error = "connect: " + errno_str();
    }
    const std::int64_t now = steady_now_ms();
    if (refused && refused_grace_ms >= 0) {
      if (refused_since < 0) refused_since = now;
      DS_CHECK_MSG(now - refused_since < refused_grace_ms,
                   "cannot connect to " + ep_str(ep) +
                       ": connection refused for " +
                       std::to_string(now - refused_since) +
                       " ms (nothing listens there)");
    } else {
      refused_since = -1;
    }
    DS_CHECK_MSG(now < deadline,
                 "cannot connect to " + ep_str(ep) + " within " +
                     std::to_string(timeout_ms) + " ms (" + last_error + ")");
    // The peer is probably not listening yet (launch order is arbitrary);
    // back off briefly and retry.
    timespec ts{0, 20'000'000};  // 20 ms
    ::nanosleep(&ts, nullptr);
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  DS_CHECK_MSG(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                            sizeof(one)) == 0,
               "setsockopt(TCP_NODELAY): " + errno_str());
}

void set_io_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  DS_CHECK_MSG(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) ==
                       0 &&
                   ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv,
                                sizeof(tv)) == 0,
               "setsockopt(SO_RCVTIMEO/SO_SNDTIMEO): " + errno_str());
}

void set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DS_CHECK_MSG(flags >= 0, "fcntl(F_GETFL): " + errno_str());
  const int updated =
      nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  DS_CHECK_MSG(::fcntl(fd, F_SETFL, updated) == 0,
               "fcntl(F_SETFL): " + errno_str());
}

std::vector<Endpoint> parse_hosts(std::istream& in) {
  std::vector<Endpoint> hosts;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string host;
    if (!(fields >> host)) continue;  // blank / comment-only line
    long port = 0;
    std::string trailing;
    DS_CHECK_MSG(static_cast<bool>(fields >> port) && !(fields >> trailing) &&
                     port > 0 && port <= 65535,
                 "hosts file line " + std::to_string(lineno) +
                     ": expected 'host port', got '" + line + "'");
    hosts.push_back({host, static_cast<std::uint16_t>(port)});
  }
  return hosts;
}

std::vector<Endpoint> read_hosts_file(const std::string& path) {
  std::ifstream in(path);
  DS_CHECK_MSG(in.good(), "cannot open hosts file: " + path);
  return parse_hosts(in);
}

}  // namespace ds::net
