// Tests for the TCP wire framing (net/frame.hpp): header/payload encode +
// incremental reassembly roundtrips, partial and chunked delivery, corrupt
// headers, and the EINTR/short-read/short-write resilience of the blocking
// read_full/write_full loops over a real socketpair.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <algorithm>
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
