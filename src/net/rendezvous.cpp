#include "net/rendezvous.hpp"

#include <chrono>
#include <string>

#include "net/frame.hpp"
#include "support/check.hpp"
#include "support/fnv.hpp"

namespace ds::net {

namespace {

/// Absolute steady-clock µs — the clock the recorders time spans on, so
/// the handshake offset estimate applies to trace timestamps directly.
std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string describe(const Handshake& h) {
  return "rank " + std::to_string(h.rank) + "/" + std::to_string(h.ranks) +
         " version " + std::to_string(h.version) + " topology " +
         std::to_string(h.topology_digest) + " partition " +
         std::to_string(h.partition_digest);
}

/// Verifies a peer's hello against ours; returns the empty string when
/// compatible, else the reason the launch must die.
std::string mismatch_reason(const Handshake& mine, const Handshake& peer) {
  if (peer.version != mine.version) {
    return "protocol version mismatch (" + std::to_string(peer.version) +
           " vs " + std::to_string(mine.version) + ")";
  }
  if (peer.ranks != mine.ranks) {
    return "fleet size mismatch (the peer's hosts file has " +
           std::to_string(peer.ranks) + " ranks, this rank's " +
           std::to_string(mine.ranks) + ")";
  }
  if (peer.rank >= mine.ranks || peer.rank == mine.rank) {
    return "invalid peer rank " + std::to_string(peer.rank);
  }
  if (peer.topology_digest != mine.topology_digest) {
    return "topology digest mismatch — the ranks disagree about the "
           "instance, seed or ID strategy (" + describe(peer) + " vs " +
           describe(mine) + ")";
  }
  if (peer.partition_digest != mine.partition_digest) {
    return "partition digest mismatch — the ranks split the node set "
           "differently (" + describe(peer) + " vs " + describe(mine) + ")";
  }
  return {};
}

std::vector<std::uint64_t> pack_handshake(const Handshake& h) {
  return {h.version, h.rank, h.ranks, h.topology_digest, h.partition_digest};
}

Handshake unpack_handshake(const Frame& frame) {
  DS_CHECK_MSG(frame.header.type ==
                       static_cast<std::uint32_t>(FrameType::kHello) &&
                   frame.payload.size() == 5,
               "rendezvous: expected a kHello frame");
  return {frame.payload[0], frame.payload[1], frame.payload[2],
          frame.payload[3], frame.payload[4]};
}

/// Connector side: assert our identity, wait for the peer's verdict. When
/// `clock` is non-null, the hello/welcome round-trip doubles as an
/// NTP-style clock probe: the welcome carries the acceptor's steady-clock
/// now, and halving the round-trip gives the midpoint estimate
/// `offset = remote_now - (t_send + t_recv) / 2`, accurate to ±RTT/2.
void offer_handshake(const Socket& s, const Handshake& mine,
                     ClockSync* clock = nullptr) {
  const auto words = pack_handshake(mine);
  const std::uint64_t t_send = steady_now_us();
  write_frame(s.fd(), FrameType::kHello, 0, words.data(), words.size(),
              "rendezvous hello");
  const Frame reply = read_frame(s.fd(), "rendezvous welcome");
  const std::uint64_t t_recv = steady_now_us();
  if (reply.header.type == static_cast<std::uint32_t>(FrameType::kAbort)) {
    DS_CHECK_MSG(false, "rendezvous rejected: " +
                            unpack_string(reply.payload.data(),
                                          reply.payload.size()));
  }
  DS_CHECK_MSG(reply.header.type ==
                   static_cast<std::uint32_t>(FrameType::kWelcome),
               "rendezvous: expected kWelcome");
  if (clock != nullptr && !reply.payload.empty()) {
    const std::int64_t remote = static_cast<std::int64_t>(reply.payload[0]);
    const std::int64_t midpoint =
        static_cast<std::int64_t>((t_send + t_recv) / 2);
    clock->offset_us = remote - midpoint;
    clock->valid = true;
  }
}

/// Acceptor side: read the peer's hello, verify, welcome (or abort back so
/// the peer reports the same reason). Returns the peer's rank.
std::size_t accept_handshake(const Socket& s, const Handshake& mine) {
  const Handshake peer =
      unpack_handshake(read_frame(s.fd(), "rendezvous hello"));
  const std::string reason = mismatch_reason(mine, peer);
  if (!reason.empty()) {
    const auto words = pack_string(reason);
    write_frame(s.fd(), FrameType::kAbort, 0, words.data(), words.size(),
                "rendezvous abort");
    DS_CHECK_MSG(false, "rendezvous rejected peer: " + reason);
  }
  const std::uint64_t now = steady_now_us();
  write_frame(s.fd(), FrameType::kWelcome, 0, &now, 1, "rendezvous welcome");
  return static_cast<std::size_t>(peer.rank);
}

}  // namespace

std::uint64_t topology_digest(const local::NetworkTopology& topo) {
  const graph::Graph& g = topo.graph();
  Fnv1a fnv{kFnvShortBasis};
  fnv.word(g.num_nodes());
  fnv.word(topo.total_ports());
  fnv.word(topo.seed());
  // Delivery slots encode the full port-level structure (adjacency and port
  // numbering); UIDs cover the IdStrategy/seed-derived identity.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t p = 0; p < g.degree(v); ++p) {
      fnv.word(topo.delivery_slot(v, p));
    }
  }
  fnv.words(topo.uids().data(), topo.uids().size());
  return fnv.h;
}

std::uint64_t partition_digest(const dist::Partition& part) {
  return partition_digest(part.num_workers(), part.boundaries());
}

std::uint64_t partition_digest(std::size_t ranks,
                               const std::vector<graph::NodeId>& bounds) {
  Fnv1a fnv{kFnvShortBasis};
  fnv.word(ranks);
  for (const graph::NodeId b : bounds) fnv.word(b);
  return fnv.h;
}

std::uint64_t instance_digest(const std::string& identity) {
  // One word per character (not one byte): the handshake's historical form.
  Fnv1a fnv{kFnvShortBasis};
  for (const char c : identity) fnv.word(static_cast<unsigned char>(c));
  return fnv.h;
}

std::vector<Socket> rendezvous(const Handshake& mine,
                               const std::vector<Endpoint>& hosts,
                               Socket& listen, int timeout_ms,
                               ClockSync* clock) {
  const std::size_t ranks = hosts.size();
  const std::size_t rank = static_cast<std::size_t>(mine.rank);
  DS_CHECK_MSG(rank < ranks, "rendezvous: rank out of range");
  if (clock != nullptr && rank == 0) {
    // Rank 0 IS the reference clock; a single-rank fleet trivially is too.
    clock->valid = true;
    clock->offset_us = 0;
  }
  std::vector<Socket> conns(ranks);
  if (ranks == 1) return conns;

  // Budget the blocking handshake I/O itself, not just accept/connect: a
  // peer (or a stray scanner hitting the listen port) that connects but
  // never speaks must trip SO_RCVTIMEO instead of hanging the bootstrap.
  const auto with_deadline = [&](Socket s) {
    set_io_timeouts(s.fd(), timeout_ms);
    return s;
  };

  if (rank == 0) {
    // Rendezvous point: verify every peer's hello; the connections stay as
    // the (0, r) pair connections. Welcomes go out one by one, so a
    // welcomed peer may dial a rank whose listener is not bound yet —
    // connect_to's retry loop absorbs that.
    for (std::size_t i = 1; i < ranks; ++i) {
      Socket s = with_deadline(accept_from(listen.fd(), timeout_ms));
      const std::size_t peer = accept_handshake(s, mine);
      DS_CHECK_MSG(!conns[peer].valid(),
                   "rendezvous: duplicate rank " + std::to_string(peer) +
                       " (two processes launched with the same --rank?)");
      conns[peer] = std::move(s);
    }
  } else {
    // The dial to rank 0 is the clock-probe edge: measuring against rank 0
    // directly keeps every rank's offset relative to the same reference.
    Socket s = with_deadline(connect_to(hosts[0], timeout_ms));
    offer_handshake(s, mine, clock);
    conns[0] = std::move(s);
    // Accept the lower peers before dialing the higher ones: rank a dials
    // rank b only for a < b, and in ascending b, so this order is a total
    // order on the mesh edges — the build cannot deadlock.
    for (std::size_t i = 1; i < rank; ++i) {
      Socket a = with_deadline(accept_from(listen.fd(), timeout_ms));
      const std::size_t peer = accept_handshake(a, mine);
      DS_CHECK_MSG(peer >= 1 && peer < rank && !conns[peer].valid(),
                   "rendezvous: unexpected connection from rank " +
                       std::to_string(peer));
      conns[peer] = std::move(a);
    }
    for (std::size_t b = rank + 1; b < ranks; ++b) {
      Socket d = with_deadline(connect_to(hosts[b], timeout_ms));
      offer_handshake(d, mine);
      conns[b] = std::move(d);
    }
  }
  // The transport switches the fds to nonblocking for the round exchange;
  // the handshake deadlines must not linger into a caller that does not.
  for (std::size_t r = 0; r < ranks; ++r) {
    if (conns[r].valid()) set_io_timeouts(conns[r].fd(), 0);
  }
  return conns;
}

}  // namespace ds::net
