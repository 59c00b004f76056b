#include "net/tcp_transport.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/rendezvous.hpp"
#include "obs/publish.hpp"
#include "support/check.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // non-Linux: rely on the transport ignoring EPIPE
#endif

namespace ds::net {

namespace {

const char* type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kHalo: return "halo";
    case FrameType::kLive: return "liveness";
    case FrameType::kGather: return "gather";
    case FrameType::kOutputs: return "outputs";
    case FrameType::kAbort: return "abort";
    case FrameType::kSetup: return "setup";
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kDispatch: return "dispatch";
    case FrameType::kShutdown: return "shutdown";
  }
  return "?";
}

}  // namespace

TcpTransport::TcpTransport(std::size_t rank,
                           const std::vector<Endpoint>& hosts,
                           InstanceDigests digests, TcpOptions opts,
                           Socket listen)
    : rank_(rank), part_(nullptr), opts_(opts) {
  const std::size_t ranks = hosts.size();
  DS_CHECK_MSG(ranks >= 1 && rank < ranks,
               "TcpTransport: rank must be in [0, ranks)");
  peers_.resize(ranks);
  gather_rows_.resize(ranks);
  if (ranks == 1) {
    clock_.valid = true;  // a lone rank is its own reference clock
    return;
  }

  if (!listen.valid()) listen = listen_on(hosts[rank]);
  Handshake mine;
  mine.version = kProtocolVersion;
  mine.rank = rank;
  mine.ranks = ranks;
  mine.topology_digest = digests.topology;
  mine.partition_digest = digests.partition;
  std::vector<Socket> conns =
      rendezvous(mine, hosts, listen, opts_.handshake_timeout_ms, &clock_);
  listen.reset();  // free the rank port for a later executor immediately
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r == rank_) continue;
    set_nodelay(conns[r].fd());
    set_nonblocking(conns[r].fd(), true);
    peers_[r].sock = std::move(conns[r]);
  }
}

void TcpTransport::attach_partition(const dist::Partition& part) {
  DS_CHECK_MSG(part.num_workers() == peers_.size(),
               "TcpTransport: partition must have one range per rank");
  part_ = &part;
  out_routes_.assign(part.num_out_halo(rank_), OutRoute{});
  halo_live_.resize(peers_.size());
  for (std::size_t d = 0; d < peers_.size(); ++d) {
    const std::vector<std::uint32_t>& slots =
        part.link(rank_, d).src_out_slots;
    // A LOCAL program's first rounds often have every cut port live; room
    // for the whole link keeps them from regrowing the list.
    halo_live_[d].reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      // `ship` walks the slots in ascending order, so each peer's live
      // ports come out in link order only if the link's slots ascend.
      DS_CHECK_MSG(i == 0 || slots[i] > slots[i - 1],
                   "TcpTransport: out-halo slots out of link order");
      out_routes_[slots[i]] = {static_cast<std::uint32_t>(d),
                               static_cast<std::uint32_t>(i)};
    }
  }
}

std::vector<std::vector<std::uint64_t>> TcpTransport::exchange_setup(
    const std::vector<std::vector<std::uint64_t>>& to_peer) {
  const std::size_t ranks = peers_.size();
  DS_CHECK_MSG(to_peer.size() == ranks,
               "exchange_setup needs one payload per rank");
  std::vector<std::vector<std::uint64_t>> from_peer(ranks);
  if (ranks == 1) return from_peer;
  ++exchange_seq_;
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r != rank_) {
      stage(r, FrameType::kSetup, to_peer[r].data(), to_peer[r].size());
    }
  }
  std::vector<bool> expect(ranks, true);
  pump(FrameType::kSetup, expect);
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r == rank_) continue;
    // Hand the payload buffer to the caller instead of copying — setup
    // payloads (cut edges, halo values) scale with the instance.
    from_peer[r] = std::move(peers_[r].ctrl.payload);
    peers_[r].ctrl.payload.clear();
  }
  return from_peer;
}

void TcpTransport::dispatch(FrameType type,
                            const std::vector<std::uint64_t>& words) {
  DS_CHECK_MSG(rank_ == 0, "dispatch: only rank 0 broadcasts serve frames");
  DS_CHECK_MSG(
      type == FrameType::kDispatch || type == FrameType::kShutdown,
      "dispatch carries kDispatch/kShutdown frames only");
  const std::size_t ranks = peers_.size();
  if (ranks == 1) return;
  ++exchange_seq_;
  for (std::size_t r = 1; r < ranks; ++r) {
    stage(r, type, words.data(), words.size());
  }
  // Flush only: the followers answer through the request's own collectives
  // (or not at all, for kShutdown).
  const std::vector<bool> expect(ranks, false);
  pump(type, expect);
}

TcpTransport::DispatchEvent TcpTransport::await_dispatch(
    std::vector<std::uint64_t>& out, int timeout_ms) {
  DS_CHECK_MSG(rank_ != 0 && peers_.size() > 1,
               "await_dispatch: follower ranks of a multi-rank fleet only");
  Peer& p = peers_[0];
  const std::int64_t deadline = steady_now_ms() + timeout_ms;
  while (!p.reader.next_frame(scratch_)) {
    const std::int64_t left = deadline - steady_now_ms();
    if (left <= 0) return DispatchEvent::kTimeout;
    pollfd pfd{p.sock.fd(), POLLIN, 0};
    poll_iterations_.add(1);
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(left, 200)));
    if (rc < 0) {
      DS_CHECK_MSG(errno == EINTR,
                   std::string("poll(dispatch): ") + std::strerror(errno));
      continue;
    }
    if (rc == 0) continue;
    if ((pfd.revents & POLLNVAL) != 0) peer_lost(0, "invalid socket");
    const auto [buf, capacity] = p.reader.recv_buffer(64 * 1024);
    const ssize_t n = ::recv(p.sock.fd(), buf, capacity, 0);
    if (n > 0) {
      p.rx_bytes.add(static_cast<std::uint64_t>(n));
      p.reader.commit(static_cast<std::size_t>(n));
    } else if (n == 0) {
      peer_lost(0, "EOF");
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      peer_lost(0, std::string("recv: ") + std::strerror(errno));
    } else {
      recv_retries_.add(1);
    }
  }
  const auto type = static_cast<FrameType>(scratch_.header.type);
  if (type == FrameType::kAbort) {
    const std::string msg =
        unpack_string(scratch_.payload.data(), scratch_.payload.size());
    abort(msg);
    DS_CHECK_MSG(false, "distributed run aborted by rank 0: " + msg);
  }
  // The broadcast steps the exchange on both sides; a timeout above left it
  // untouched, so the step happens exactly once per delivered frame.
  ++exchange_seq_;
  DS_CHECK_MSG(
      (type == FrameType::kDispatch || type == FrameType::kShutdown) &&
          scratch_.header.seq == exchange_seq_,
      "rank " + std::to_string(rank_) + ": protocol drift — got " +
          type_name(type) + " frame seq " +
          std::to_string(scratch_.header.seq) +
          " from rank 0 while awaiting dispatch seq " +
          std::to_string(exchange_seq_));
  p.rx_frames.add(1);
  out = std::move(scratch_.payload);
  scratch_.payload.clear();
  return type == FrameType::kDispatch ? DispatchEvent::kDispatch
                                      : DispatchEvent::kShutdown;
}

bool TcpTransport::peers_alive(std::string* why) {
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    if (r == rank_) continue;
    Peer& p = peers_[r];
    std::string reason;
    if (!p.sock.valid()) {
      reason = "connection closed";
    } else if (p.reader.pending_bytes() > 0) {
      // Collectives consume whole frames before returning, so leftover
      // bytes while idle mean the peer spoke out of turn (a dying rank's
      // kAbort, or drift).
      reason = "unsolicited bytes buffered";
    } else {
      char probe;
      const ssize_t n =
          ::recv(p.sock.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0) {
        reason = "EOF";
      } else if (n > 0) {
        reason = "unsolicited traffic (peer aborting?)";
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        reason = std::string("recv: ") + std::strerror(errno);
      }
    }
    if (!reason.empty()) {
      if (why != nullptr) {
        *why = "rank " + std::to_string(r) + ": " + reason;
      }
      return false;
    }
  }
  return true;
}

void TcpTransport::set_recorder(obs::Recorder* rec) {
  recorder_ = rec;
  const std::size_t ranks = peers_.size();
  for (std::size_t r = 0; r < ranks; ++r) {
    Peer& p = peers_[r];
    if (rec == nullptr || r == rank_) {
      p.tx_frames = obs::Counter{};
      p.tx_bytes = obs::Counter{};
      p.rx_frames = obs::Counter{};
      p.rx_bytes = obs::Counter{};
      continue;
    }
    obs::Metrics& m = rec->metrics();
    p.tx_frames = m.counter("tcp.tx.frames", ranks, r);
    p.tx_bytes = m.counter("tcp.tx.bytes", ranks, r);
    p.rx_frames = m.counter("tcp.rx.frames", ranks, r);
    p.rx_bytes = m.counter("tcp.rx.bytes", ranks, r);
  }
  if (rec == nullptr) {
    poll_iterations_ = obs::Counter{};
    send_retries_ = obs::Counter{};
    recv_retries_ = obs::Counter{};
  } else {
    poll_iterations_ = rec->metrics().counter("tcp.poll.iterations");
    send_retries_ = rec->metrics().counter("tcp.send.retries");
    recv_retries_ = rec->metrics().counter("tcp.recv.retries");
    if (clock_.valid) {
      // Trace-lane alignment gauges (see recorder.hpp). The offset is
      // signed; it rides in the unsigned cell bit-cast, and every renderer
      // special-cases the `clock.offset.` prefix back to signed.
      const std::string suffix = "rank" + std::to_string(rank_) + ".us";
      rec->metrics()
          .gauge("clock.offset." + suffix)
          .set(static_cast<std::uint64_t>(clock_.offset_us));
      const std::int64_t t0_on_rank0 =
          static_cast<std::int64_t>(rec->t0_ns() / 1000) + clock_.offset_us;
      rec->metrics()
          .gauge("clock.t0." + suffix)
          .set(static_cast<std::uint64_t>(t0_on_rank0));
    }
  }
}

void TcpTransport::stage(std::size_t d, FrameType type,
                         const std::uint64_t* words, std::size_t count) {
  peers_[d].tx_frames.add(1);
  append_frame(peers_[d].out, type, exchange_seq_, words, count);
}

void TcpTransport::peer_lost(std::size_t r, const std::string& why) {
  const std::string msg =
      "rank " + std::to_string(rank_) + ": connection to rank " +
      std::to_string(r) + " lost (" + why + ") — peer process died?";
  abort(msg);  // forward to the surviving peers so nobody waits for us
  DS_CHECK_MSG(false, "distributed run aborted: " + msg);
}

void TcpTransport::handle_frame(std::size_t r, FrameType expect) {
  Peer& p = peers_[r];
  const auto type = static_cast<FrameType>(scratch_.header.type);
  if (type == FrameType::kAbort) {
    const std::string msg = unpack_string(scratch_.payload.data(),
                                          scratch_.payload.size());
    abort(msg);  // forward before dying so the whole fleet unblocks
    DS_CHECK_MSG(false, "distributed run aborted by rank " +
                            std::to_string(r) + ": " + msg);
  }
  DS_CHECK_MSG(type == expect && scratch_.header.seq == exchange_seq_,
               "rank " + std::to_string(rank_) + ": protocol drift — got " +
                   type_name(type) + " frame seq " +
                   std::to_string(scratch_.header.seq) + " from rank " +
                   std::to_string(r) + " while expecting " +
                   type_name(expect) + " seq " +
                   std::to_string(exchange_seq_));
  Frame& target = (expect == FrameType::kHalo) ? p.halo : p.ctrl;
  target.header = scratch_.header;
  std::swap(target.payload, scratch_.payload);
  p.rx_frames.add(1);
  p.got = true;
}

void TcpTransport::pump(FrameType expect,
                        const std::vector<bool>& expect_from) {
  const std::size_t ranks = peers_.size();
  // The unsent bytes of p: its own staged frames first, then its cursor
  // into the shared broadcast buffer (never both at once — per-peer frames
  // and the broadcast belong to different phases).
  const auto send_span = [](Peer& p) -> std::pair<const char*, std::size_t> {
    if (p.out_pos < p.out.size()) {
      return {p.out.data() + p.out_pos, p.out.size() - p.out_pos};
    }
    if (p.shared_out != nullptr && p.shared_pos < p.shared_out->size()) {
      return {p.shared_out->data() + p.shared_pos,
              p.shared_out->size() - p.shared_pos};
    }
    return {nullptr, 0};
  };
  const auto advance_sent = [](Peer& p, std::size_t n) {
    if (p.out_pos < p.out.size()) {
      p.out_pos += n;
      if (p.out_pos == p.out.size()) {
        p.out.clear();
        p.out_pos = 0;
      }
      return;
    }
    p.shared_pos += n;
    if (p.shared_pos == p.shared_out->size()) {
      p.shared_out = nullptr;
      p.shared_pos = 0;
    }
  };
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r == rank_) continue;
    Peer& p = peers_[r];
    p.got = !expect_from[r];
    // A fast peer's frame may already be buffered from an earlier recv.
    while (!p.got && p.reader.next_frame(scratch_)) {
      handle_frame(r, expect);
    }
  }

  const std::int64_t deadline = steady_now_ms() + opts_.round_timeout_ms;
  std::vector<pollfd> pfds;
  std::vector<std::size_t> pfd_rank;
  for (;;) {
    pfds.clear();
    pfd_rank.clear();
    for (std::size_t r = 0; r < ranks; ++r) {
      if (r == rank_) continue;
      Peer& p = peers_[r];
      short events = 0;
      if (send_span(p).second > 0) events |= POLLOUT;
      if (!p.got) events |= POLLIN;
      if (events != 0) {
        pfds.push_back({p.sock.fd(), events, 0});
        pfd_rank.push_back(r);
      }
    }
    if (pfds.empty()) return;  // everything flushed, everything received

    const std::int64_t left = deadline - steady_now_ms();
    if (left <= 0) {
      std::string waiting;
      for (std::size_t r = 0; r < ranks; ++r) {
        if (r != rank_ && !peers_[r].got) {
          waiting += (waiting.empty() ? "" : ", ") + std::to_string(r);
        }
      }
      const std::string msg =
          "rank " + std::to_string(rank_) + ": timed out after " +
          std::to_string(opts_.round_timeout_ms) + " ms waiting for " +
          type_name(expect) + " frames from rank(s) " +
          (waiting.empty() ? "<none — send stalled>" : waiting);
      abort(msg);
      DS_CHECK_MSG(false, "distributed run aborted: " + msg);
    }
    // Short poll slices keep the deadline honest even if the clock source
    // and poll disagree about elapsed time.
    const int slice = static_cast<int>(std::min<std::int64_t>(left, 200));
    poll_iterations_.add(1);
    const int rc = ::poll(pfds.data(), pfds.size(), slice);
    if (rc < 0) {
      DS_CHECK_MSG(errno == EINTR,
                   std::string("poll(exchange): ") + std::strerror(errno));
      continue;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const std::size_t r = pfd_rank[i];
      Peer& p = peers_[r];
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if ((re & POLLNVAL) != 0) peer_lost(r, "invalid socket");
      // Read first: POLLHUP/POLLERR may still have buffered data (and the
      // peer's kAbort is exactly the frame we want to see before dying).
      if ((re & (POLLIN | POLLHUP | POLLERR)) != 0 && !p.got) {
        const auto [buf, capacity] = p.reader.recv_buffer(64 * 1024);
        const ssize_t n = ::recv(p.sock.fd(), buf, capacity, 0);
        if (n > 0) {
          p.rx_bytes.add(static_cast<std::uint64_t>(n));
          p.reader.commit(static_cast<std::size_t>(n));
          while (!p.got && p.reader.next_frame(scratch_)) {
            handle_frame(r, expect);
          }
        } else if (n == 0) {
          peer_lost(r, "EOF");
        } else if (errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK) {
          peer_lost(r, std::string("recv: ") + std::strerror(errno));
        } else {
          recv_retries_.add(1);
        }
      } else if ((re & (POLLHUP | POLLERR)) != 0) {
        peer_lost(r, "connection reset");
      }
      const auto [send_ptr, send_len] = send_span(p);
      if ((re & POLLOUT) != 0 && send_len > 0) {
        const ssize_t n = ::send(p.sock.fd(), send_ptr, send_len,
                                 MSG_NOSIGNAL);
        if (n > 0) {
          p.tx_bytes.add(static_cast<std::uint64_t>(n));
          advance_sent(p, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK) {
          peer_lost(r, std::string("send: ") + std::strerror(errno));
        } else if (n < 0) {
          send_retries_.add(1);
        }
      }
    }
  }
}

std::size_t TcpTransport::sync_liveness(std::size_t my_not_done) {
  ++exchange_seq_;
  const std::size_t ranks = peers_.size();
  const std::uint64_t word = my_not_done;
  std::vector<bool> expect(ranks, true);
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r != rank_) stage(r, FrameType::kLive, &word, 1);
  }
  pump(FrameType::kLive, expect);
  std::size_t total = my_not_done;
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r == rank_) continue;
    const Frame& f = peers_[r].ctrl;
    DS_CHECK_MSG(f.payload.size() == 1, "malformed liveness frame");
    total += static_cast<std::size_t>(f.payload[0]);
  }
  return total;
}

void TcpTransport::ship(const local::MessageSpan* local_arena,
                        const std::uint64_t* bank_words, std::uint32_t epoch,
                        const RoundTotals& mine) {
  ++exchange_seq_;
  const std::size_t ranks = peers_.size();
  // One pass over the out-halo region sorts the live spans by peer: every
  // cut span is read once per round, not once per link.
  for (std::vector<HaloEntry>& live : halo_live_) live.clear();
  const local::MessageSpan* out_halo =
      local_arena + part_->num_local_ports(rank_);
  for (std::size_t slot = 0; slot < out_routes_.size(); ++slot) {
    const local::MessageSpan& span = out_halo[slot];
    if (span.epoch == epoch && span.length > 0) {
      const OutRoute route = out_routes_[slot];
      halo_live_[route.peer].push_back({route.port, span.length, span.offset});
    }
  }
  for (std::size_t d = 0; d < ranks; ++d) {
    if (d == rank_) continue;
    encode_halo(stage_words_,
                {mine.senders, mine.messages, mine.payload_words},
                part_->link(rank_, d).src_out_slots.size(), halo_live_[d],
                bank_words);
    stage(d, FrameType::kHalo, stage_words_.data(), stage_words_.size());
  }
  std::vector<bool> expect(ranks, true);
  pump(FrameType::kHalo, expect);

  totals_ = mine;
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r == rank_) continue;
    const Frame& f = peers_[r].halo;
    DS_CHECK_MSG(f.payload.size() >= 3, "malformed halo frame");
    totals_.senders += f.payload[0];
    totals_.messages += f.payload[1];
    totals_.payload_words += f.payload[2];
  }
  // Every rank sums its own share plus every peer's stats triple, so the
  // totals are fleet-wide on every rank.
  totals_.aggregated = true;
}

void TcpTransport::patch(local::MessageSpan* local_arena,
                         std::uint32_t epoch) {
  const std::size_t ranks = peers_.size();
  for (std::size_t s = 0; s < ranks; ++s) {
    if (s == rank_) continue;
    const dist::Partition::HaloLink& link = part_->link(s, rank_);
    const Frame& f = peers_[s].halo;
    decode_halo(f.payload.data(), f.payload.size(), link.dst_slots.size(),
                halo_live_[s]);
    // Silent ports keep their stale span in the dst arena: its old epoch
    // reads as the empty message. A frame comes from another process, so
    // each offset is checked before it narrows to the span's 32 bits.
    const auto bank = static_cast<std::uint32_t>(1 + s);
    for (const HaloEntry& e : halo_live_[s]) {
      DS_CHECK_MSG(e.offset <= UINT32_MAX,
                   "malformed halo frame: payload offset past 2^32 - 1");
      local_arena[link.dst_slots[e.port]] = local::MessageSpan{
          .offset = static_cast<std::uint32_t>(e.offset),
          .length = e.length,
          .epoch = epoch,
          .bank = bank};
    }
  }
}

void TcpTransport::update_bank_bases(
    std::vector<const std::uint64_t*>& bases,
    const std::uint64_t* own_bank) const {
  const std::size_t ranks = peers_.size();
  bases.assign(1 + ranks, nullptr);
  bases[0] = own_bank;
  for (std::size_t s = 0; s < ranks; ++s) {
    if (s == rank_) continue;
    if (part_->link(s, rank_).dst_slots.empty()) continue;  // no spans here
    // Patched offsets index the whole frame payload; the buffer is stable
    // until the next ship's exchange parses into it.
    bases[1 + s] = peers_[s].halo.payload.data();
  }
}

void TcpTransport::gather(const std::vector<std::uint64_t>& words) {
  const std::size_t ranks = peers_.size();
  // Phase 1: everyone streams its rows to rank 0.
  ++exchange_seq_;
  std::vector<bool> expect(ranks, rank_ == 0);
  if (rank_ != 0) {
    stage(0, FrameType::kGather, words.data(), words.size());
    std::fill(expect.begin(), expect.end(), false);
  }
  pump(FrameType::kGather, expect);

  // Phase 2: rank 0 assembles and re-broadcasts the full table, so results
  // are replicated SPMD-style — every rank's run returns the whole table.
  ++exchange_seq_;
  if (rank_ == 0) {
    gather_rows_[0] = words;
    for (std::size_t r = 1; r < ranks; ++r) {
      // Adopt the frame buffer; at scale a copy per rank is real memory.
      gather_rows_[r] = std::move(peers_[r].ctrl.payload);
      peers_[r].ctrl.payload.clear();
    }
    stage_words_.clear();
    for (std::size_t r = 0; r < ranks; ++r) {
      stage_words_.push_back(gather_rows_[r].size());
    }
    for (std::size_t r = 0; r < ranks; ++r) {
      stage_words_.insert(stage_words_.end(), gather_rows_[r].begin(),
                          gather_rows_[r].end());
    }
    // One framed copy of the table, shared by every peer's send cursor —
    // not one staged duplicate per peer.
    broadcast_bytes_.clear();
    append_frame(broadcast_bytes_, FrameType::kOutputs, exchange_seq_,
                 stage_words_.data(), stage_words_.size());
    stage_words_.clear();
    stage_words_.shrink_to_fit();  // the framed copy supersedes it
    for (std::size_t r = 1; r < ranks; ++r) {
      peers_[r].shared_out = &broadcast_bytes_;
      peers_[r].shared_pos = 0;
      peers_[r].tx_frames.add(1);  // the shared kOutputs frame, per peer
    }
    std::fill(expect.begin(), expect.end(), false);
    pump(FrameType::kOutputs, expect);
    broadcast_bytes_.clear();
    broadcast_bytes_.shrink_to_fit();  // every cursor has drained it
  } else {
    std::fill(expect.begin(), expect.end(), false);
    expect[0] = true;
    pump(FrameType::kOutputs, expect);
    const Frame& f = peers_[0].ctrl;
    DS_CHECK_MSG(f.payload.size() >= ranks, "malformed outputs frame");
    std::size_t pos = ranks;
    for (std::size_t r = 0; r < ranks; ++r) {
      const auto count = static_cast<std::size_t>(f.payload[r]);
      DS_CHECK_MSG(pos + count <= f.payload.size(),
                   "malformed outputs frame");
      gather_rows_[r].assign(f.payload.begin() + pos,
                             f.payload.begin() + pos + count);
      pos += count;
    }
    DS_CHECK_MSG(pos == f.payload.size(), "malformed outputs frame");
  }
}

std::pair<const std::uint64_t*, std::size_t> TcpTransport::gathered(
    std::size_t w) const {
  DS_CHECK(w < gather_rows_.size());
  return {gather_rows_[w].data(), gather_rows_[w].size()};
}

void TcpTransport::abort(const std::string& msg) {
  if (abort_sent_) return;
  abort_sent_ = true;
  // Flip the live-introspection health before anything that can block:
  // /healthz must answer 503 even if the abort broadcast stalls.
  if (recorder_ != nullptr && recorder_->publisher() != nullptr) {
    recorder_->publisher()->set_health(obs::Health::kAborted);
  }
  // Best effort with a short budget: the fleet is dying; never block the
  // exception path on a peer that stopped reading.
  std::vector<char> frame_bytes;
  const auto words = pack_string(msg);
  append_frame(frame_bytes, FrameType::kAbort, exchange_seq_, words.data(),
               words.size());
  const std::int64_t deadline = steady_now_ms() + 250;
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    if (r == rank_ || !peers_[r].sock.valid()) continue;
    std::size_t sent = 0;
    while (sent < frame_bytes.size() && steady_now_ms() < deadline) {
      const ssize_t n =
          ::send(peers_[r].sock.fd(), frame_bytes.data() + sent,
                 frame_bytes.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{peers_[r].sock.fd(), POLLOUT, 0};
        ::poll(&pfd, 1, 20);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // peer already gone; nothing to do
      }
    }
  }
}

}  // namespace ds::net
