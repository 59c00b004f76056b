#pragma once

/// \file tcp_transport.hpp
/// `net::TcpTransport` — the multi-host implementation of the abstract
/// `dist::Transport`, carrying the halo protocol over per-ordered-pair TCP
/// connections.
///
/// Where the shm transport writes into shared blocks and synchronizes with
/// a barrier, this transport makes the frame exchange itself the barrier:
/// each collective phase, every rank sends one frame to every peer and
/// blocks (in a poll loop that writes and reads simultaneously, so an
/// all-to-all burst larger than the socket buffers cannot deadlock) until
/// every peer's frame of that phase arrived. TCP's per-connection ordering
/// plus the SPMD-deterministic protocol mean the next frame on a connection
/// is always the expected one; an exchange-sequence counter carried in
/// every header turns any drift into a hard error.
///
/// A round's kHalo frame toward peer d carries this rank's send-phase stats
/// and the live cut traffic in the canonical `Partition::link(rank, d)`
/// order: a presence bitmap over the link's cut ports, a byte-wide (or,
/// when a message exceeds 255 words, 4-byte) length entry per live port,
/// and each distinct message's words once — a broadcast crosses the link
/// once, not once per cut port (`encode_halo`, net/frame.hpp). Unlike the
/// shm exchange blocks' length per cut port, a silent or halted port costs
/// one bit.
/// Received payloads stay in per-peer frame buffers, and `patch` points the
/// destination span arena into them (bank index 1 + src): no per-message
/// copying or routing metadata.
///
/// Failure handling is piggybacked on the same stream: an aborting rank
/// best-effort sends kAbort on every connection, and a rank that observes
/// EOF / a reset / a timeout raises the abort itself and forwards it to the
/// remaining peers — so a SIGKILLed rank fails the whole run quickly
/// instead of hanging it.

#include <cstdint>
#include <string>
#include <vector>

#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "net/frame.hpp"
#include "net/rendezvous.hpp"
#include "net/socket.hpp"
#include "obs/recorder.hpp"

namespace ds::net {

/// Socket/timing knobs of one TcpTransport.
struct TcpOptions {
  /// Rendezvous budget: listen/connect/handshake of the whole fleet.
  int handshake_timeout_ms = 30000;
  /// Per-collective-phase budget; a peer that stays silent this long is
  /// declared dead and the run aborts collectively.
  int round_timeout_ms = 120000;
};

/// The instance-agreement digests carried in the rendezvous handshake,
/// computed once per transport from what the process was launched with:
/// a `distsplit_rank` launch from the instance structure, seed and `ids`
/// parameter (`launch_digest`), plus the structure alone for the split;
/// the in-situ path from the generator spec and the range boundaries; the
/// serving daemon from the resident instance's structure in both slots —
/// whatever identifies the instance without holding it.
struct InstanceDigests {
  std::uint64_t topology = 0;
  std::uint64_t partition = 0;
};

class TcpTransport final : public dist::Transport {
 public:
  /// Establishes the full pair-connection mesh (see rendezvous.hpp): binds
  /// `hosts[rank]` unless a pre-bound `listen` socket is supplied, then
  /// handshakes with every peer, carrying `digests`. The listen socket is
  /// closed once the mesh is up. Connections get TCP_NODELAY and keep the
  /// kernel's autotuned buffer sizes. No partition is attached yet: until
  /// `attach_partition`, only `sync_liveness`, `exchange_setup`, `gather`,
  /// the serve broadcasts and `abort` may be called.
  TcpTransport(std::size_t rank, const std::vector<Endpoint>& hosts,
               InstanceDigests digests, TcpOptions opts, Socket listen = {});

  /// Attaches the partition the round phases route by (each
  /// `TcpNetwork::run` attaches its executor's). `part` must stay alive
  /// while rounds use it and agree with the handshaken rank count.
  void attach_partition(const dist::Partition& part);

  /// Pre-run all-to-all collective: sends `to_peer[r]` to every peer r and
  /// returns the words each peer sent here (own slot empty). Payload layout
  /// is the caller's — the in-situ runner uses it for cut edges, halo
  /// values and digest broadcasts. Single-rank fleets short-circuit.
  std::vector<std::vector<std::uint64_t>> exchange_setup(
      const std::vector<std::vector<std::uint64_t>>& to_peer);

  /// What `await_dispatch` observed on the standing serve connections.
  enum class DispatchEvent {
    kTimeout,   ///< nothing arrived within the wait budget; call again
    kDispatch,  ///< rank 0 broadcast a request; payload in `out`
    kShutdown,  ///< rank 0 is draining; exit the serve loop cleanly
  };

  /// Rank 0's one-to-all serve broadcast (`kDispatch`/`kShutdown`): stages
  /// the frame to every follower and flushes, expecting nothing back — the
  /// acknowledgment is the SPMD protocol itself (the next collective the
  /// request's run issues). Steps the exchange sequence; single-rank fleets
  /// short-circuit.
  void dispatch(FrameType type, const std::vector<std::uint64_t>& words);

  /// Follower-side wait for rank 0's next serve broadcast, at most
  /// `timeout_ms` (so an idle follower can poll its shutdown latch instead
  /// of sitting in the round-timeout abort path). kTimeout leaves the
  /// exchange sequence untouched; a delivered frame steps it in lockstep
  /// with rank 0's `dispatch`. Throws on a dead or drifting connection,
  /// like every collective.
  DispatchEvent await_dispatch(std::vector<std::uint64_t>& out,
                               int timeout_ms);

  /// Non-throwing idle probe of every standing connection, for a resident
  /// daemon *between* collectives: returns false — filling `why` — when a
  /// peer hung up, errored, or sent unsolicited bytes (a follower's kAbort:
  /// its process is dying). Never aborts the fleet itself; the caller
  /// decides whether to flip health or keep limping.
  [[nodiscard]] bool peers_alive(std::string* why);

  [[nodiscard]] std::size_t rank() const override { return rank_; }
  [[nodiscard]] std::size_t num_ranks() const override {
    return peers_.size();
  }

  std::size_t sync_liveness(std::size_t my_not_done) override;
  void ship(const local::MessageSpan* local_arena,
            const std::uint64_t* bank_words, std::uint32_t epoch,
            const RoundTotals& mine) override;
  [[nodiscard]] RoundTotals round_totals() const override {
    return totals_;
  }
  void patch(local::MessageSpan* local_arena, std::uint32_t epoch) override;
  void update_bank_bases(std::vector<const std::uint64_t*>& bases,
                         const std::uint64_t* own_bank) const override;
  void gather(const std::vector<std::uint64_t>& words) override;
  [[nodiscard]] std::pair<const std::uint64_t*, std::size_t> gathered(
      std::size_t w) const override;
  void abort(const std::string& msg) override;

  /// Hooks this rank's transport counters into `rec` (nullptr detaches):
  /// per-peer `tcp.tx.frames` / `tcp.tx.bytes` / `tcp.rx.frames` /
  /// `tcp.rx.bytes` (slot = peer rank) plus `tcp.poll.iterations` and
  /// `tcp.send.retries` / `tcp.recv.retries` (EAGAIN backoffs). Also
  /// records the rendezvous clock estimate as `clock.offset.rank<R>.us`
  /// (signed, bit-cast) and `clock.t0.rank<R>.us` (this recorder's t0
  /// mapped onto rank 0's clock) — the trace-lane alignment gauges.
  void set_recorder(obs::Recorder* rec) override;

  /// The rank-0 clock estimate measured during rendezvous (valid on every
  /// rank of a connected fleet; exact zero on rank 0 itself).
  [[nodiscard]] const ClockSync& clock() const { return clock_; }

 private:
  /// Per-peer connection state. `halo` keeps the last kHalo frame alive
  /// through the receive phase (Inbox spans point into its payload); all
  /// other expected frames land in `ctrl`.
  struct Peer {
    Socket sock;
    std::vector<char> out;     ///< staged outgoing bytes (per-peer frames)
    std::size_t out_pos = 0;   ///< first unsent byte
    /// Broadcast staging: when the same frame goes to every peer (the
    /// gather re-broadcast), all peers share one buffer and keep only a
    /// cursor — rank 0 must not hold N identical copies of the table.
    const std::vector<char>* shared_out = nullptr;
    std::size_t shared_pos = 0;
    FrameReader reader;
    Frame halo;
    Frame ctrl;
    bool got = false;          ///< expected frame of this exchange arrived
    // Per-peer transport counters (slot = this peer's rank); null no-ops
    // until set_recorder hooks them up.
    obs::Counter tx_frames;
    obs::Counter tx_bytes;
    obs::Counter rx_frames;
    obs::Counter rx_bytes;
  };

  /// Appends one frame toward peer `d` for the current exchange.
  void stage(std::size_t d, FrameType type, const std::uint64_t* words,
             std::size_t count);

  /// Drives the poll loop until every staged byte is flushed and every peer
  /// in `expect_from` delivered its `expect` frame of the current exchange.
  void pump(FrameType expect, const std::vector<bool>& expect_from);

  /// Stores an arrived frame, enforcing type and sequence lockstep.
  void handle_frame(std::size_t r, FrameType expect);

  /// A peer's connection died: raise + forward the abort, then throw.
  [[noreturn]] void peer_lost(std::size_t r, const std::string& why);

  std::size_t rank_;
  const dist::Partition* part_;
  TcpOptions opts_;
  std::vector<Peer> peers_;          ///< size ranks; own slot unused
  std::uint64_t exchange_seq_ = 0;   ///< stepped once per collective phase
  RoundTotals totals_;               ///< last shipped round, fleet-wide
  std::vector<std::vector<std::uint64_t>> gather_rows_;  ///< per rank
  /// Where an out-halo slot's message goes: its peer and its port in the
  /// link's canonical order.
  struct OutRoute {
    std::uint32_t peer = 0;
    std::uint32_t port = 0;
  };
  std::vector<OutRoute> out_routes_;  ///< per out-halo slot of the partition
  /// Per peer: the live ports `ship` encodes, then those `patch` decodes.
  std::vector<std::vector<HaloEntry>> halo_live_;
  std::vector<std::uint64_t> stage_words_;  ///< scratch payload builder
  std::vector<char> broadcast_bytes_;       ///< shared kOutputs frame
  Frame scratch_;                           ///< scratch parse target
  bool abort_sent_ = false;
  ClockSync clock_;                  ///< rendezvous rank-0 clock estimate
  obs::Recorder* recorder_ = nullptr;  ///< last set_recorder target
  obs::Counter poll_iterations_;
  obs::Counter send_retries_;
  obs::Counter recv_retries_;
};

}  // namespace ds::net
