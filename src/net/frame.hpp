#pragma once

/// \file frame.hpp
/// The wire framing of the TCP halo transport.
///
/// Every message on a pair connection is one *frame*: a fixed 24-byte
/// header followed by `payload_words` 64-bit words. Frames are written and
/// parsed in host byte order — a distributed launch must be homogeneous
/// anyway for the executors' bit-identical contract to mean anything, and
/// the header magic doubles as an endianness/protocol probe (a byte-swapped
/// peer fails the magic check on the very first frame).
///
/// Frame types and their payloads (see tcp_transport.cpp for the protocol):
///
///   kHello    handshake: [version, rank, ranks, topology digest,
///             partition digest]
///   kWelcome  handshake accept: [acceptor steady-clock now, µs] — the
///             connector halves the hello/welcome round-trip to estimate
///             the clock offset between the two ranks (NTP-style), which
///             aligns the per-rank trace lanes
///   kHalo     one round's traffic toward the receiving rank, over the
///             link's canonical cut-port order (see encode_halo):
///             [mode, presence bitmap[ceil(cut/64)], one length entry per
///              live port (1 byte when mode 0, 4 bytes when mode 1; 0
///              repeats the previous live port's payload), message words...]
///   kLive     round-closing liveness: [not_done]
///   kGather   end-of-run gather toward rank 0: the sender's observability
///             block ([obs_word_count, obs words...], count 0 when
///             observability is off) followed by its output rows — see
///             dist/rank_loop.hpp for the layout
///   kOutputs  rank 0's re-broadcast of the assembled output table
///   kAbort    collective abort; payload is the reason string packed into
///             words (see pack_string/unpack_string)
///   kSetup    pre-run all-to-all setup exchange (in-situ cut edges, halo
///             values, digest broadcasts); payload layout is the caller's
///   kRequest  a serve client's submission on the daemon's request port;
///             payload is the versioned request codec of serve/protocol.hpp
///   kResponse the daemon's answer to one kRequest (same codec family)
///   kDispatch rank 0's broadcast of an accepted request to the follower
///             ranks of a standing serve fleet; payload is the encoded
///             request, so every rank executes the identical run
///   kShutdown rank 0's broadcast that the serve fleet is draining and the
///             followers should exit cleanly; empty payload
///
/// The `seq` field carries the sender's exchange counter; both sides of a
/// connection step it in lockstep (the protocol is SPMD-deterministic), so
/// any drift — a lost frame, a protocol bug, a rank rerunning a different
/// algorithm — is caught as a hard error instead of silent corruption.
///
/// Blocking I/O goes through `read_full`/`write_full` (EINTR-resilient,
/// partial-read/write-resilient); the nonblocking round exchange feeds
/// bytes through a `FrameReader`, which reassembles frames incrementally.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ds::net {

/// First header field of every frame; also the endianness probe.
constexpr std::uint32_t kFrameMagic = 0x44534E54;  // "DSNT"

/// Wire protocol version; bumped on any layout change.
/// v2: kGather/kOutputs payloads carry a leading observability block.
/// v3: kSetup frames (in-situ setup collectives) join the exchange.
/// v4: kWelcome carries the acceptor's steady-clock time (trace alignment).
/// v5: serve frames (kRequest/kResponse on the client port, kDispatch/
///     kShutdown on the standing fleet connections).
/// v6: kHalo carries a presence bitmap and byte-wide length entries for
///     live ports only, and each broadcast's words once per peer.
/// v7: kHalo drops the sender's [senders, messages, payload_words] stats
///     triple; each rank's round spans carry its counts instead.
constexpr std::uint64_t kProtocolVersion = 7;

/// Upper bound on one frame's payload (2^31 words = 16 GiB) — far above
/// any legitimate round's traffic. A header claiming more is corruption or
/// protocol drift and must fail as such, not as an attempted giant
/// allocation (and the cap keeps the header-plus-payload size arithmetic
/// from wrapping).
constexpr std::uint64_t kMaxFramePayloadWords = 1ull << 31;

enum class FrameType : std::uint32_t {
  kHello = 1,
  kWelcome = 2,
  kHalo = 3,
  kLive = 4,
  kGather = 5,
  kOutputs = 6,
  kAbort = 7,
  kSetup = 8,
  kRequest = 9,
  kResponse = 10,
  kDispatch = 11,
  kShutdown = 12,
};

/// The fixed frame header. Plain trivially-copyable struct; shipped as raw
/// bytes (host order, see file comment).
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t type = 0;
  std::uint64_t seq = 0;            ///< sender's exchange counter
  std::uint64_t payload_words = 0;  ///< 64-bit words following the header
};
static_assert(sizeof(FrameHeader) == 24, "header layout is part of the wire");

/// One reassembled frame.
struct Frame {
  FrameHeader header;
  std::vector<std::uint64_t> payload;
};

/// Appends a complete frame (header + payload) to `out`.
void append_frame(std::vector<char>& out, FrameType type, std::uint64_t seq,
                  const std::uint64_t* words, std::size_t count);

/// Packs a string into whole words (length prefix + bytes, zero-padded) /
/// unpacks it again — the kAbort payload encoding.
std::vector<std::uint64_t> pack_string(const std::string& s);
std::string unpack_string(const std::uint64_t* words, std::size_t count);

/// One live cut port of a kHalo frame: a port whose message this round is
/// non-empty. `port` indexes the link's canonical cut-port order, `length`
/// (> 0) counts payload words, and `offset` locates them — in the sender's
/// word bank for `encode_halo`, in the frame payload for `decode_halo`.
struct HaloEntry {
  std::uint32_t port = 0;
  std::uint32_t length = 0;
  std::uint64_t offset = 0;
};

/// Replaces `out` with the kHalo payload for one link of `cut` ports:
///  1. the mode word: 0 for 1-byte length entries, 1 for 4-byte ones (when
///     some length exceeds 255);
///  2. the presence bitmap, ceil(cut/64) words: bit i is set iff port i is
///     in `live`;
///  3. one length entry per set bit, in bit order, packed into whole words
///     and zero-padded. An entry of 0 repeats the previous set bit's
///     payload: the encoder writes it when a port's span has the same bank
///     offset and length as the previous live port's (one
///     `Outbox::broadcast`), so a broadcast crosses the link once;
///  4. the words of every nonzero entry, in bit order, copied from `bank`.
/// `live` must be in ascending port order, every port below `cut`. Keeps
/// `out`'s capacity, so a warm buffer does not allocate.
void encode_halo(std::vector<std::uint64_t>& out, std::size_t cut,
                 const std::vector<HaloEntry>& live,
                 const std::uint64_t* bank);

/// Validates the kHalo payload `words[0, count)` of a link of `cut` ports
/// and replaces `live` with its live ports in port order, each `offset` an
/// index into `words` (a repeat entry shares its predecessor's). Throws
/// ds::CheckError naming a `malformed halo frame` when the frame is shorter
/// than its header, has a mode other than 0 or 1, sets a bit at or past
/// `cut`, opens with a repeat entry, or its payload words do not fill it
/// exactly (`halo frame length mismatch`). Reads nothing past `count`.
void decode_halo(const std::uint64_t* words, std::size_t count,
                 std::size_t cut, std::vector<HaloEntry>& live);

/// Reads exactly `bytes` from `fd` (blocking), retrying on EINTR and short
/// reads. Throws ds::CheckError on EOF or error, naming `what`.
void read_full(int fd, void* buf, std::size_t bytes, const char* what);

/// Writes exactly `bytes` to `fd` (blocking), retrying on EINTR and short
/// writes. Throws ds::CheckError on error, naming `what`.
void write_full(int fd, const void* buf, std::size_t bytes, const char* what);

/// Blocking convenience pair for the handshake phase.
void write_frame(int fd, FrameType type, std::uint64_t seq,
                 const std::uint64_t* words, std::size_t count,
                 const char* what);
Frame read_frame(int fd, const char* what);

/// Incremental frame reassembly for the nonblocking exchange: recv straight
/// into `recv_buffer()`, `commit` what arrived, then drain complete frames
/// with `next_frame`. Bytes beyond the last complete frame stay buffered
/// across calls (a fast peer's next-round frame can land early).
class FrameReader {
 public:
  /// A writable span of at least `hint` bytes to recv into.
  [[nodiscard]] std::pair<char*, std::size_t> recv_buffer(std::size_t hint);

  /// Declares `n` bytes of `recv_buffer` as received.
  void commit(std::size_t n);

  /// Moves the next complete frame into `out` (reusing its payload
  /// capacity). Returns false while incomplete. Throws ds::CheckError on a
  /// corrupt header (bad magic — protocol drift or an endianness-mismatched
  /// peer).
  bool next_frame(Frame& out);

  /// Buffered-but-unparsed byte count (diagnostics).
  [[nodiscard]] std::size_t pending_bytes() const { return end_ - start_; }

 private:
  void compact();

  std::vector<char> buf_;
  std::size_t start_ = 0;  ///< first unparsed byte
  std::size_t end_ = 0;    ///< one past the last received byte
};

}  // namespace ds::net
