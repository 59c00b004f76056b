// Tests for the TCP wire framing (net/frame.hpp): header/payload encode +
// incremental reassembly roundtrips, partial and chunked delivery, corrupt
// headers, the kHalo codec (bitmap, length widths, repeat entries and every
// malformed-frame rejection), and the EINTR/short-read/short-write
// resilience of the blocking read_full/write_full loops over a real
// socketpair.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "support/check.hpp"

namespace ds::net {
namespace {

/// Small kernel buffers force many short writes and short reads.
void shrink_buffers(int fd) {
  const int bytes = 8 * 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)), 0);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)), 0);
}

std::vector<std::uint64_t> words_iota(std::size_t n, std::uint64_t start) {
  std::vector<std::uint64_t> w(n);
  std::iota(w.begin(), w.end(), start);
  return w;
}

TEST(Frame, AppendAndReassembleRoundtrip) {
  const auto payload = words_iota(17, 1000);
  std::vector<char> bytes;
  append_frame(bytes, FrameType::kHalo, 42, payload.data(), payload.size());
  EXPECT_EQ(bytes.size(),
            sizeof(FrameHeader) + payload.size() * sizeof(std::uint64_t));

  FrameReader reader;
  const auto [buf, capacity] = reader.recv_buffer(bytes.size());
  ASSERT_GE(capacity, bytes.size());
  std::memcpy(buf, bytes.data(), bytes.size());
  reader.commit(bytes.size());

  Frame frame;
  ASSERT_TRUE(reader.next_frame(frame));
  EXPECT_EQ(frame.header.magic, kFrameMagic);
  EXPECT_EQ(frame.header.type, static_cast<std::uint32_t>(FrameType::kHalo));
  EXPECT_EQ(frame.header.seq, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(reader.next_frame(frame));
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(Frame, EmptyPayloadAndBackToBackFrames) {
  std::vector<char> bytes;
  append_frame(bytes, FrameType::kWelcome, 1, nullptr, 0);
  const auto payload = words_iota(5, 7);
  append_frame(bytes, FrameType::kLive, 2, payload.data(), payload.size());
  append_frame(bytes, FrameType::kGather, 3, nullptr, 0);

  FrameReader reader;
  const auto [buf, capacity] = reader.recv_buffer(bytes.size());
  std::memcpy(buf, bytes.data(), bytes.size());
  reader.commit(bytes.size());

  Frame frame;
  ASSERT_TRUE(reader.next_frame(frame));
  EXPECT_EQ(frame.header.type,
            static_cast<std::uint32_t>(FrameType::kWelcome));
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(reader.next_frame(frame));
  EXPECT_EQ(frame.header.type, static_cast<std::uint32_t>(FrameType::kLive));
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(reader.next_frame(frame));
  EXPECT_EQ(frame.header.type,
            static_cast<std::uint32_t>(FrameType::kGather));
  EXPECT_FALSE(reader.next_frame(frame));
}

TEST(Frame, ByteAtATimeDelivery) {
  // The reassembler must survive arbitrarily mean packetization: one byte
  // per recv, a frame boundary never aligned with a delivery boundary.
  const auto p1 = words_iota(9, 3);
  const auto p2 = words_iota(2, 90);
  std::vector<char> bytes;
  append_frame(bytes, FrameType::kHalo, 7, p1.data(), p1.size());
  append_frame(bytes, FrameType::kLive, 8, p2.data(), p2.size());

  FrameReader reader;
  Frame frame;
  std::size_t frames_seen = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto [buf, capacity] = reader.recv_buffer(1);
    ASSERT_GE(capacity, 1u);
    buf[0] = bytes[i];
    reader.commit(1);
    while (reader.next_frame(frame)) {
      ++frames_seen;
      if (frames_seen == 1) {
        EXPECT_EQ(frame.header.seq, 7u);
        EXPECT_EQ(frame.payload, p1);
      } else {
        EXPECT_EQ(frame.header.seq, 8u);
        EXPECT_EQ(frame.payload, p2);
      }
    }
  }
  EXPECT_EQ(frames_seen, 2u);
}

TEST(Frame, PartialFrameStaysPending) {
  const auto payload = words_iota(4, 0);
  std::vector<char> bytes;
  append_frame(bytes, FrameType::kHalo, 1, payload.data(), payload.size());
  FrameReader reader;
  Frame frame;
  // Everything but the last byte: not parseable yet, bytes stay buffered.
  auto [buf, capacity] = reader.recv_buffer(bytes.size());
  std::memcpy(buf, bytes.data(), bytes.size() - 1);
  reader.commit(bytes.size() - 1);
  EXPECT_FALSE(reader.next_frame(frame));
  EXPECT_EQ(reader.pending_bytes(), bytes.size() - 1);
  auto [buf2, capacity2] = reader.recv_buffer(1);
  buf2[0] = bytes.back();
  reader.commit(1);
  ASSERT_TRUE(reader.next_frame(frame));
  EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, BadMagicThrows) {
  std::vector<char> bytes;
  append_frame(bytes, FrameType::kHalo, 1, nullptr, 0);
  bytes[0] = 'X';  // corrupt the magic
  FrameReader reader;
  const auto [buf, capacity] = reader.recv_buffer(bytes.size());
  std::memcpy(buf, bytes.data(), bytes.size());
  reader.commit(bytes.size());
  Frame frame;
  EXPECT_THROW((void)reader.next_frame(frame), ds::CheckError);
}

TEST(Frame, PackStringRoundtrip) {
  for (const std::string& s :
       {std::string(""), std::string("x"), std::string("halo overflow"),
        std::string(300, 'q')}) {
    const auto words = pack_string(s);
    EXPECT_EQ(unpack_string(words.data(), words.size()), s);
  }
  // A corrupt length claim must not read out of bounds.
  std::vector<std::uint64_t> lying = {1000, 0x4141414141414141ull};
  EXPECT_EQ(unpack_string(lying.data(), lying.size()).size(), 8u);
}

// ---- The kHalo codec -----------------------------------------------------

/// The sender's side of one link: a word bank and the live ports, each
/// pointing at its words in the bank.
struct HaloLinkFixture {
  std::vector<std::uint64_t> bank;
  std::vector<HaloEntry> live;

  /// Port `port` sends `length` fresh words (a `write` or `push`).
  void write(std::uint32_t port, std::uint32_t length) {
    live.push_back({port, length, bank.size()});
    for (std::uint32_t i = 0; i < length; ++i) {
      bank.push_back(0x9E3779B97F4A7C15ull * (bank.size() + 1));
    }
  }
  /// Ports [first, first + k) share one `length`-word payload (a
  /// `broadcast` whose node has k adjacent cut ports on this link).
  void broadcast(std::uint32_t first, std::uint32_t k, std::uint32_t length) {
    write(first, length);
    for (std::uint32_t p = first + 1; p < first + k; ++p) {
      live.push_back({p, length, live.back().offset});
    }
  }
};

/// Words before a kHalo frame's bitmap: the mode word.
constexpr std::size_t kHead = 1;

std::size_t halo_head_words(std::size_t cut, std::size_t live,
                            std::size_t width) {
  return kHead + (cut + 63) / 64 + (live * width + 7) / 8;
}

/// Encodes `link`, decodes the result, and checks that every live port
/// reads back its own words from the frame.
std::vector<std::uint64_t> roundtrip(const HaloLinkFixture& link,
                                     std::size_t cut) {
  std::vector<std::uint64_t> frame;
  encode_halo(frame, cut, link.live, link.bank.data());
  std::vector<HaloEntry> got;
  decode_halo(frame.data(), frame.size(), cut, got);
  EXPECT_EQ(got.size(), link.live.size());
  for (std::size_t k = 0; k < std::min(got.size(), link.live.size()); ++k) {
    const HaloEntry& want = link.live[k];
    EXPECT_EQ(got[k].port, want.port);
    EXPECT_EQ(got[k].length, want.length);
    if (got[k].length != want.length ||
        got[k].offset + got[k].length > frame.size()) {
      ADD_FAILURE() << "port " << want.port << " decodes out of its words";
      continue;
    }
    EXPECT_TRUE(std::equal(frame.begin() + got[k].offset,
                           frame.begin() + got[k].offset + got[k].length,
                           link.bank.begin() + want.offset))
        << "port " << want.port;
  }
  return frame;
}

std::string halo_error(const std::vector<std::uint64_t>& frame,
                       std::size_t cut) {
  std::vector<HaloEntry> live;
  try {
    decode_halo(frame.data(), frame.size(), cut, live);
  } catch (const ds::CheckError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(HaloCodec, EmptyFrameIsHeaderAndBitmapOnly) {
  for (const std::size_t cut : {0, 1, 64, 200}) {
    const auto frame = roundtrip({}, cut);
    EXPECT_EQ(frame.size(), halo_head_words(cut, 0, 1)) << "cut " << cut;
    EXPECT_EQ(frame[0], 0u);
  }
}

TEST(HaloCodec, EveryPortLive) {
  HaloLinkFixture link;
  for (std::uint32_t p = 0; p < 130; ++p) link.write(p, 1 + p % 4);
  const auto frame = roundtrip(link, 130);
  EXPECT_EQ(frame.size(), halo_head_words(130, 130, 1) + link.bank.size());
  for (std::size_t w = 0; w < 2; ++w) EXPECT_EQ(frame[kHead + w], ~0ull);
  EXPECT_EQ(frame[kHead + 2], 3u);  // ports 128, 129
}

TEST(HaloCodec, MixedSilentAndHaltedPorts) {
  // Ports 0-9 belong to a halted node (absent), 10-19 alternate between
  // messages and silence, 20-29 send per-port writes of growing length.
  HaloLinkFixture link;
  for (std::uint32_t p = 10; p < 20; p += 2) link.write(p, 3);
  for (std::uint32_t p = 20; p < 30; ++p) link.write(p, p - 19);
  const auto frame = roundtrip(link, 40);
  EXPECT_EQ(frame.size(),
            halo_head_words(40, link.live.size(), 1) + link.bank.size());
}

TEST(HaloCodec, BroadcastRunCrossesOnce) {
  // A broadcast over k adjacent ports: one payload copy, k - 1 repeats,
  // between per-port writes whose words must not be taken for repeats.
  for (const std::uint32_t k : {2u, 5u, 64u}) {
    HaloLinkFixture link;
    link.write(0, 2);
    link.broadcast(1, k, 3);
    link.write(1 + k, 3);
    link.broadcast(2 + k, 2, 1);
    const std::size_t cut = 4 + k;
    const auto frame = roundtrip(link, cut);
    const std::size_t head = halo_head_words(cut, link.live.size(), 1);
    EXPECT_EQ(frame.size(), head + 2 + 3 + 3 + 1) << "k " << k;
    const auto* entries = reinterpret_cast<const unsigned char*>(
        frame.data() + kHead + (cut + 63) / 64);
    EXPECT_EQ(entries[0], 2u);
    EXPECT_EQ(entries[1], 3u);
    for (std::uint32_t i = 2; i <= k; ++i) EXPECT_EQ(entries[i], 0u);
    EXPECT_EQ(entries[k + 1], 3u);
    EXPECT_EQ(entries[k + 2], 1u);
    EXPECT_EQ(entries[k + 3], 0u);
  }
}

TEST(HaloCodec, LongMessageSwitchesToFourByteEntries) {
  HaloLinkFixture link;
  link.write(0, 255);
  auto frame = roundtrip(link, 3);
  EXPECT_EQ(frame[0], 0u);  // 255 still fits a byte
  link.write(1, 300);
  link.broadcast(2, 2, 1);
  frame = roundtrip(link, 4);
  EXPECT_EQ(frame[0], 1u);
  EXPECT_EQ(frame.size(), halo_head_words(4, 4, 4) + 255 + 300 + 1);
}

TEST(HaloCodec, CutBoundaries) {
  for (const std::size_t cut : {1, 63, 64, 65}) {
    const auto last = static_cast<std::uint32_t>(cut - 1);
    HaloLinkFixture link;
    if (cut > 2) link.write(0, 1);
    link.write(last, 2);
    const auto frame = roundtrip(link, cut);
    std::uint64_t last_word = std::uint64_t{1} << (last % 64);
    if (cut > 2 && last < 64) last_word |= 1;
    EXPECT_EQ(frame[kHead + last / 64], last_word) << "cut " << cut;
  }
}

TEST(HaloCodec, RejectsMalformedFrames) {
  HaloLinkFixture link;
  for (std::uint32_t p = 0; p < 70; p += 3) link.write(p, 2);
  link.broadcast(71, 3, 1);
  const std::size_t cut = 80;
  std::vector<std::uint64_t> good;
  encode_halo(good, cut, link.live, link.bank.data());
  ASSERT_EQ(halo_error(good, cut), "accepted");
  const std::size_t bitmap_end = kHead + 2;
  const std::size_t head = halo_head_words(cut, link.live.size(), 1);

  const auto expect_rejected = [&](const char* what,
                                   const std::vector<std::uint64_t>& frame) {
    const std::string error = halo_error(frame, cut);
    EXPECT_NE(error.find("malformed halo frame"), std::string::npos)
        << what << ": " << error;
  };
  expect_rejected("truncated bitmap",
                  std::vector<std::uint64_t>(good.begin(),
                                             good.begin() + bitmap_end - 1));
  expect_rejected("mode only",
                  std::vector<std::uint64_t>(good.begin(), good.begin() + 1));
  expect_rejected("empty", {});
  expect_rejected("truncated lengths",
                  std::vector<std::uint64_t>(good.begin(),
                                             good.begin() + head - 1));
  auto stray = good;
  stray[kHead + 1] |= std::uint64_t{1} << (cut % 64);  // port 80
  expect_rejected("stray bit", stray);
  auto leading_repeat = good;
  reinterpret_cast<unsigned char*>(leading_repeat.data() + bitmap_end)[0] = 0;
  expect_rejected("leading repeat", leading_repeat);
  auto mode2 = good;
  mode2[0] = 2;
  expect_rejected("mode 2", mode2);
  auto trailing = good;
  trailing.push_back(0);
  expect_rejected("trailing words", trailing);
  auto short_payload = good;
  short_payload.pop_back();
  expect_rejected("short payload", short_payload);
  EXPECT_NE(halo_error(trailing, cut).find("halo frame length mismatch"),
            std::string::npos);
}

// ---- Blocking I/O over a real socketpair ---------------------------------

TEST(FrameIo, ReadWriteFullSurviveShortTransfers) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);
  shrink_buffers(a.fd());
  shrink_buffers(b.fd());

  const std::size_t bytes = 2 * 1024 * 1024;
  std::vector<char> sent(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    sent[i] = static_cast<char>((i * 131) & 0xFF);
  }
  std::thread writer([&] {
    write_full(a.fd(), sent.data(), sent.size(), "test write");
  });
  std::vector<char> got(bytes, 0);
  read_full(b.fd(), got.data(), got.size(), "test read");
  writer.join();
  EXPECT_EQ(got, sent);
}

TEST(FrameIo, WriteAndReadFrameOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);
  const auto payload = words_iota(1000, 5);
  std::thread writer([&] {
    write_frame(a.fd(), FrameType::kOutputs, 99, payload.data(),
                payload.size(), "test frame write");
  });
  const Frame frame = read_frame(b.fd(), "test frame read");
  writer.join();
  EXPECT_EQ(frame.header.type,
            static_cast<std::uint32_t>(FrameType::kOutputs));
  EXPECT_EQ(frame.header.seq, 99u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameIo, ReadFullReportsEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);
  const char byte = 1;
  write_full(a.fd(), &byte, 1, "test");
  a.reset();  // close: the reader gets 1 byte then EOF
  char buf[2];
  try {
    read_full(b.fd(), buf, 2, "eof test");
    FAIL() << "expected EOF to throw";
  } catch (const ds::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("closed by peer"),
              std::string::npos);
  }
}

void sigusr1_noop(int) {}

TEST(FrameIo, ReadWriteFullResumeAfterEintr) {
  // Install a non-SA_RESTART handler so blocking reads/writes genuinely
  // return EINTR, then pepper the I/O thread with signals mid-transfer.
  struct sigaction sa{};
  struct sigaction old{};
  sa.sa_handler = sigusr1_noop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);
  shrink_buffers(a.fd());
  shrink_buffers(b.fd());

  const std::size_t bytes = 1024 * 1024;
  std::vector<char> sent(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    sent[i] = static_cast<char>((i * 29) & 0xFF);
  }
  const pthread_t reader_thread = ::pthread_self();
  std::thread writer([&] {
    // Interleave slow chunked writes with signals at the reader, so its
    // blocked read()s wake with EINTR repeatedly.
    const std::size_t chunk = 64 * 1024;
    for (std::size_t off = 0; off < bytes; off += chunk) {
      ::pthread_kill(reader_thread, SIGUSR1);
      write_full(a.fd(), sent.data() + off, std::min(chunk, bytes - off),
                 "eintr test write");
      ::pthread_kill(reader_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<char> got(bytes, 0);
  read_full(b.fd(), got.data(), got.size(), "eintr test read");
  writer.join();
  EXPECT_EQ(got, sent);
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

}  // namespace
}  // namespace ds::net
