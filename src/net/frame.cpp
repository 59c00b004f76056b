#include "net/frame.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "support/check.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // non-Linux: a dead peer may SIGPIPE instead
#endif

namespace ds::net {

void append_frame(std::vector<char>& out, FrameType type, std::uint64_t seq,
                  const std::uint64_t* words, std::size_t count) {
  FrameHeader header;
  header.type = static_cast<std::uint32_t>(type);
  header.seq = seq;
  header.payload_words = count;
  const std::size_t base = out.size();
  out.resize(base + sizeof(header) + count * sizeof(std::uint64_t));
  std::memcpy(out.data() + base, &header, sizeof(header));
  if (count > 0) {
    std::memcpy(out.data() + base + sizeof(header), words,
                count * sizeof(std::uint64_t));
  }
}

std::vector<std::uint64_t> pack_string(const std::string& s) {
  std::vector<std::uint64_t> words(1 + (s.size() + 7) / 8, 0);
  words[0] = s.size();
  if (!s.empty()) std::memcpy(words.data() + 1, s.data(), s.size());
  return words;
}

std::string unpack_string(const std::uint64_t* words, std::size_t count) {
  if (count == 0) return {};
  std::size_t len = static_cast<std::size_t>(words[0]);
  len = std::min(len, (count - 1) * sizeof(std::uint64_t));  // corruption cap
  std::string s(len, '\0');
  if (len > 0) std::memcpy(s.data(), words + 1, len);
  return s;
}

namespace {

/// Words before a kHalo frame's bitmap: the stats triple and the mode word.
constexpr std::size_t kHaloHeadWords = 4;

std::size_t bitmap_words(std::size_t cut) { return (cut + 63) / 64; }

}  // namespace

void encode_halo(std::vector<std::uint64_t>& out,
                 const std::array<std::uint64_t, 3>& stats, std::size_t cut,
                 const std::vector<HaloEntry>& live,
                 const std::uint64_t* bank) {
  // Spans over the same bank words carry the same message. Within one epoch
  // only `Outbox::broadcast` writes such spans, and a broadcasting node's
  // cut ports toward one peer are adjacent in link order.
  const auto repeats = [&](std::size_t k) {
    return k > 0 && live[k].offset == live[k - 1].offset &&
           live[k].length == live[k - 1].length;
  };
  std::uint32_t widest = 0;
  std::size_t payload = 0;
  for (std::size_t k = 0; k < live.size(); ++k) {
    widest = std::max(widest, live[k].length);
    if (!repeats(k)) payload += live[k].length;
  }
  const std::size_t width = widest <= 0xFF ? 1 : 4;
  const std::size_t bitmap = kHaloHeadWords;
  const std::size_t entries = bitmap + bitmap_words(cut);
  const std::size_t head = entries + (live.size() * width + 7) / 8;
  out.assign(head + payload, 0);
  std::copy(stats.begin(), stats.end(), out.begin());
  out[3] = width == 1 ? 0 : 1;
  auto* entry_bytes = reinterpret_cast<unsigned char*>(out.data() + entries);
  std::uint64_t* words = out.data() + head;
  for (std::size_t k = 0; k < live.size(); ++k) {
    const HaloEntry& e = live[k];
    out[bitmap + e.port / 64] |= std::uint64_t{1} << (e.port % 64);
    const std::uint32_t entry = repeats(k) ? 0 : e.length;
    if (width == 1) {
      entry_bytes[k] = static_cast<unsigned char>(entry);
    } else {
      std::memcpy(entry_bytes + 4 * k, &entry, 4);
    }
    if (entry != 0) {
      std::memcpy(words, bank + e.offset, entry * sizeof(std::uint64_t));
      words += entry;
    }
  }
}

void decode_halo(const std::uint64_t* words, std::size_t count,
                 std::size_t cut, std::vector<HaloEntry>& live) {
  live.clear();
  const std::size_t nbitmap = bitmap_words(cut);
  DS_CHECK_MSG(count >= kHaloHeadWords + nbitmap,
               "malformed halo frame: " + std::to_string(count) +
                   " words, shorter than its header and the presence bitmap "
                   "of " + std::to_string(cut) + " cut ports");
  const std::uint64_t mode = words[3];
  DS_CHECK_MSG(mode <= 1, "malformed halo frame: length mode " +
                              std::to_string(mode) + " (want 0 or 1)");
  const std::uint64_t* bitmap = words + kHaloHeadWords;
  DS_CHECK_MSG(cut % 64 == 0 || (bitmap[nbitmap - 1] >> (cut % 64)) == 0,
               "malformed halo frame: presence bit at or past the cut (" +
                   std::to_string(cut) + " ports)");
  std::size_t set = 0;
  for (std::size_t w = 0; w < nbitmap; ++w) {
    set += static_cast<std::size_t>(std::popcount(bitmap[w]));
  }
  const std::size_t width = mode == 0 ? 1 : 4;
  const std::size_t head = kHaloHeadWords + nbitmap + (set * width + 7) / 8;
  DS_CHECK_MSG(count >= head,
               "malformed halo frame: " + std::to_string(count) +
                   " words, shorter than the length entries of " +
                   std::to_string(set) + " live ports");
  const auto* entry_bytes =
      reinterpret_cast<const unsigned char*>(bitmap + nbitmap);
  std::uint64_t next = head;  // where the next nonzero entry's words start
  std::size_t k = 0;
  for (std::size_t w = 0; w < nbitmap; ++w) {
    for (std::uint64_t bits = bitmap[w]; bits != 0; bits &= bits - 1) {
      const auto port = static_cast<std::uint32_t>(64 * w) +
                        static_cast<std::uint32_t>(std::countr_zero(bits));
      std::uint32_t length = 0;
      if (width == 1) {
        length = entry_bytes[k];
      } else {
        std::memcpy(&length, entry_bytes + 4 * k, 4);
      }
      ++k;
      if (length == 0) {
        DS_CHECK_MSG(!live.empty(),
                     "malformed halo frame: repeat entry at port " +
                         std::to_string(port) + " with no previous live port");
        live.push_back({port, live.back().length, live.back().offset});
      } else {
        live.push_back({port, length, next});
        next += length;
      }
    }
  }
  DS_CHECK_MSG(next == count,
               "malformed halo frame: halo frame length mismatch (entries "
               "announce " + std::to_string(next - head) +
                   " payload words, the frame holds " +
                   std::to_string(count - head) + ")");
}

void read_full(int fd, void* buf, std::size_t bytes, const char* what) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, p + got, bytes - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      DS_CHECK_MSG(false, std::string(what) +
                              ": connection closed by peer (EOF after " +
                              std::to_string(got) + " of " +
                              std::to_string(bytes) + " bytes)");
    }
    // EAGAIN on a blocking fd means an SO_RCVTIMEO deadline expired (the
    // rendezvous arms one): a peer connected but went silent.
    DS_CHECK_MSG(errno != EAGAIN && errno != EWOULDBLOCK,
                 std::string(what) + ": timed out waiting for the peer");
    DS_CHECK_MSG(errno == EINTR, std::string(what) + ": read: " +
                                     std::strerror(errno));
  }
}

void write_full(int fd, const void* buf, std::size_t bytes, const char* what) {
  const char* p = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < bytes) {
    // send + MSG_NOSIGNAL: a peer that died mid-write must surface as
    // EPIPE (and throw), not kill the process with SIGPIPE. Non-socket
    // fds fall back to plain write.
    ssize_t n = ::send(fd, p + sent, bytes - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p + sent, bytes - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    DS_CHECK_MSG(!(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)),
                 std::string(what) + ": timed out writing to the peer");
    DS_CHECK_MSG(n < 0 && errno == EINTR, std::string(what) + ": write: " +
                                              std::strerror(errno));
  }
}

void write_frame(int fd, FrameType type, std::uint64_t seq,
                 const std::uint64_t* words, std::size_t count,
                 const char* what) {
  std::vector<char> bytes;
  append_frame(bytes, type, seq, words, count);
  write_full(fd, bytes.data(), bytes.size(), what);
}

Frame read_frame(int fd, const char* what) {
  Frame frame;
  read_full(fd, &frame.header, sizeof(frame.header), what);
  DS_CHECK_MSG(frame.header.magic == kFrameMagic,
               std::string(what) +
                   ": bad frame magic (protocol drift or an endianness-"
                   "mismatched peer)");
  DS_CHECK_MSG(frame.header.payload_words <= kMaxFramePayloadWords,
               std::string(what) + ": implausible frame payload length (" +
                   std::to_string(frame.header.payload_words) +
                   " words) — protocol drift or corruption");
  frame.payload.resize(frame.header.payload_words);
  if (frame.header.payload_words > 0) {
    read_full(fd, frame.payload.data(),
              frame.header.payload_words * sizeof(std::uint64_t), what);
  }
  return frame;
}

std::pair<char*, std::size_t> FrameReader::recv_buffer(std::size_t hint) {
  compact();
  if (buf_.size() - end_ < hint) buf_.resize(end_ + hint);
  return {buf_.data() + end_, buf_.size() - end_};
}

void FrameReader::commit(std::size_t n) {
  DS_CHECK(end_ + n <= buf_.size());
  end_ += n;
}

void FrameReader::compact() {
  if (start_ == 0) return;
  // Keep the buffer from creeping: slide the unparsed tail to the front
  // once the parsed prefix dominates.
  if (start_ == end_ || start_ >= buf_.size() / 2) {
    std::memmove(buf_.data(), buf_.data() + start_, end_ - start_);
    end_ -= start_;
    start_ = 0;
  }
}

bool FrameReader::next_frame(Frame& out) {
  if (end_ - start_ < sizeof(FrameHeader)) return false;
  FrameHeader header;
  std::memcpy(&header, buf_.data() + start_, sizeof(header));
  DS_CHECK_MSG(header.magic == kFrameMagic,
               "bad frame magic (protocol drift or an endianness-mismatched "
               "peer)");
  DS_CHECK_MSG(header.payload_words <= kMaxFramePayloadWords,
               "implausible frame payload length (" +
                   std::to_string(header.payload_words) +
                   " words) — protocol drift or corruption");
  const std::size_t total =
      sizeof(header) + header.payload_words * sizeof(std::uint64_t);
  if (end_ - start_ < total) return false;
  out.header = header;
  out.payload.resize(header.payload_words);
  if (header.payload_words > 0) {
    std::memcpy(out.payload.data(), buf_.data() + start_ + sizeof(header),
                header.payload_words * sizeof(std::uint64_t));
  }
  start_ += total;
  compact();
  return true;
}

}  // namespace ds::net
