#pragma once

/// \file message_arena.hpp
/// The zero-allocation message substrate shared by every LOCAL-model
/// executor: word banks, message spans, and the `Outbox`/`Inbox` handles a
/// `NodeProgram` serializes through.
///
/// One round's outgoing traffic is stored as
///  * a *word bank* per writer shard — a bump buffer of raw 64-bit words
///    that is cleared (capacity kept) at the start of the shard's send
///    phase, so steady-state rounds perform no heap allocation. Spans hold
///    32-bit offsets and lengths, so a bank holds fewer than 2^32 words: the
///    `Outbox` refuses a write past that bound before the bank grows;
///  * a `SpanArena`: one 16-byte `MessageSpan` per directed port, indexed
///    by the topology's delivery slot. A span records where in which bank
///    the payload lives and which *epoch* (32-bit round tag) wrote it.
///
/// Staleness is handled by the epoch tag instead of by clearing: a receiver
/// only accepts a span whose epoch matches the round being received, so a
/// halted neighbor's last message can never leak into a later round — and
/// executors never have to touch slots they do not deliver into. The arena
/// owns its epoch: each round advances it, and when it would wrap the arena
/// resets every span to epoch 0 and restarts at 1, so a stale span can never
/// alias a later round. The sequential executor keeps one arena across its
/// runs; each distributed rank builds one per run.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "support/check.hpp"

namespace ds::local {

/// Bump buffer of serialized message words owned by one writer shard.
using WordBank = std::vector<std::uint64_t>;

/// Largest word count a bank may hold: span offsets and lengths are 32-bit.
inline constexpr std::size_t kMaxBankWords = UINT32_MAX;

/// One serialized message: a (bank, offset, length) payload reference plus
/// the epoch tag of the round that wrote it. epoch == 0 means "never
/// written" (arenas start tagging at 1).
struct MessageSpan {
  std::uint32_t offset = 0;  ///< first payload word inside the bank
  std::uint32_t length = 0;  ///< payload length in words
  std::uint32_t epoch = 0;   ///< round tag at write time
  std::uint32_t bank = 0;    ///< writer's word-bank (shard) index
};
static_assert(sizeof(MessageSpan) == 16);

/// The spans of one executor or rank, one per slot, plus the epoch of the
/// round being written — the one place the epoch advances and wraps.
class SpanArena {
 public:
  /// `slots` untagged spans; the first `advance` returns epoch + 1. Only
  /// tests start at another epoch than 0 (to drive the wrap).
  explicit SpanArena(std::size_t slots, std::uint32_t epoch = 0)
      : spans_(slots), epoch_(epoch) {}

  /// Starts the next round and returns its epoch. At the wrap every span is
  /// reset to epoch 0 and the count restarts at 1.
  std::uint32_t advance() {
    if (epoch_ == UINT32_MAX) {
      for (MessageSpan& span : spans_) span.epoch = 0;
      epoch_ = 0;
    }
    return ++epoch_;
  }

  [[nodiscard]] MessageSpan* data() { return spans_.data(); }

 private:
  std::vector<MessageSpan> spans_;
  std::uint32_t epoch_;
};

/// Read-only view of one received message (a borrowed word span). Valid only
/// for the duration of the `receive()` call it was handed to.
class MessageView {
 public:
  MessageView() = default;
  MessageView(const std::uint64_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::uint64_t* begin() const { return data_; }
  [[nodiscard]] const std::uint64_t* end() const { return data_ + size_; }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const {
    DS_CHECK(i < size_);
    return data_[i];
  }

 private:
  const std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writer handle for one node's send phase. Serializes messages directly
/// into the executor's word bank and span arena — no per-message heap
/// allocation. Ports may be written at most once and must be opened in
/// strictly increasing order (messages are contiguous in the bump buffer);
/// ports never written send the empty message.
class Outbox {
 public:
  Outbox(WordBank* bank, std::uint32_t bank_index, MessageSpan* spans,
         const std::uint32_t* delivery_slots, std::size_t degree,
         std::uint32_t epoch)
      : bank_(bank),
        spans_(spans),
        slots_(delivery_slots),
        degree_(degree),
        epoch_(epoch),
        bank_index_(bank_index) {}

  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// Number of ports (== the node's degree).
  [[nodiscard]] std::size_t degree() const { return degree_; }

  /// Appends one word to the message on `port`, opening the port if it is
  /// not the one currently open. Ports must be opened in strictly
  /// increasing order.
  void push(std::size_t port, std::uint64_t word) {
    if (open_ == nullptr || port != open_port_) open(port);
    check_room(1);
    bank_->push_back(word);
    if (open_->length == 0) ++messages_;
    ++open_->length;
    ++payload_words_;
  }

  /// Writes `count` words as the complete message for `port`. The message
  /// is final: a later push() to the same port throws.
  void write(std::size_t port, const std::uint64_t* words, std::size_t count) {
    check_room(count);
    open(port);
    bank_->insert(bank_->end(), words, words + count);
    open_->length = static_cast<std::uint32_t>(count);
    if (count > 0) {
      ++messages_;
      payload_words_ += count;
    }
    open_ = nullptr;  // finalized — push(port) must not extend it
  }

  /// Writes `words` as the complete message for `port`.
  void write(std::size_t port, std::initializer_list<std::uint64_t> words) {
    write(port, words.begin(), words.size());
  }

  /// Sends the same message on every port, storing the payload words only
  /// once. Must be the only write of the round (call before any push/write;
  /// nothing may be written afterwards).
  void broadcast(const std::uint64_t* words, std::size_t count) {
    DS_CHECK_MSG(open_ == nullptr && next_port_ == 0,
                 "Outbox::broadcast must be the round's only write");
    next_port_ = degree_;  // forbid any further writes
    if (degree_ == 0) return;
    check_room(count);
    const MessageSpan span{.offset = static_cast<std::uint32_t>(bank_->size()),
                           .length = static_cast<std::uint32_t>(count),
                           .epoch = epoch_,
                           .bank = bank_index_};
    bank_->insert(bank_->end(), words, words + count);
    for (std::size_t p = 0; p < degree_; ++p) spans_[slots_[p]] = span;
    if (count > 0) {
      messages_ += degree_;
      payload_words_ += degree_ * count;
    }
  }
  void broadcast(std::initializer_list<std::uint64_t> words) {
    broadcast(words.begin(), words.size());
  }
  void broadcast(const std::vector<std::uint64_t>& words) {
    broadcast(words.data(), words.size());
  }

  /// Non-empty messages written this round (delivered-message accounting:
  /// a broadcast counts once per port).
  [[nodiscard]] std::size_t messages() const { return messages_; }
  /// Total payload words across those messages.
  [[nodiscard]] std::size_t payload_words() const { return payload_words_; }

 private:
  void open(std::size_t port) {
    DS_CHECK_MSG(port < degree_, "Outbox port out of range");
    DS_CHECK_MSG(open_ == nullptr || port > open_port_,
                 "Outbox ports must be written in increasing order");
    DS_CHECK_MSG(port >= next_port_,
                 "Outbox port already written (or written after broadcast)");
    open_ = &spans_[slots_[port]];
    *open_ = MessageSpan{.offset = static_cast<std::uint32_t>(bank_->size()),
                         .length = 0,
                         .epoch = epoch_,
                         .bank = bank_index_};
    open_port_ = port;
    next_port_ = port + 1;
  }

  /// Refuses `count` more words before the bank grows past what a span's
  /// 32-bit offset and length can address.
  void check_room(std::size_t count) const {
    DS_CHECK_MSG(count <= kMaxBankWords - bank_->size(),
                 "Outbox: a round's messages exceed 2^32 - 1 words");
  }

  WordBank* bank_;
  MessageSpan* spans_;            ///< write span arena (full network)
  const std::uint32_t* slots_;    ///< this node's delivery-slot row
  std::size_t degree_;
  std::uint32_t epoch_;
  std::uint32_t bank_index_;
  MessageSpan* open_ = nullptr;  ///< span of the currently open port
  std::size_t open_port_ = 0;
  std::size_t next_port_ = 0;    ///< smallest port still writable
  std::size_t messages_ = 0;
  std::size_t payload_words_ = 0;
};

/// Reader handle for one node's receive phase: the messages that arrived
/// this round, indexed by port. Resolution is lazy — `operator[]` borrows
/// the words straight out of the sender's bank, so receiving allocates
/// nothing. Views are valid only during the `receive()` call.
class Inbox {
 public:
  /// `spans` is the receiver's contiguous slot row in the *read* span arena,
  /// `bank_bases` maps bank index -> first word of that bank's read buffer,
  /// and `epoch` is the tag the received round's writers used.
  Inbox(const MessageSpan* spans, std::size_t degree,
        const std::uint64_t* const* bank_bases, std::uint32_t epoch)
      : spans_(spans), bank_bases_(bank_bases), degree_(degree),
        epoch_(epoch) {}

  /// Number of ports (== the node's degree).
  [[nodiscard]] std::size_t size() const { return degree_; }

  /// The message received on `port` (empty if the neighbor sent nothing).
  [[nodiscard]] MessageView operator[](std::size_t port) const {
    DS_CHECK(port < degree_);
    const MessageSpan& span = spans_[port];
    if (span.epoch != epoch_ || span.length == 0) return {};
    return {bank_bases_[span.bank] + span.offset, span.length};
  }

 private:
  const MessageSpan* spans_;
  const std::uint64_t* const* bank_bases_;
  std::size_t degree_;
  std::uint32_t epoch_;
};

}  // namespace ds::local
