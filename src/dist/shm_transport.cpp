#include "dist/shm_transport.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "support/check.hpp"

namespace ds::dist {

namespace {

/// Floors keep degenerate partitions (few cut ports, tiny graphs) usable
/// without tuning; both knobs can still be lowered to force the overflow
/// path in tests.
constexpr std::size_t kMinPairPayloadWords = 64;
constexpr std::size_t kMinGatherWords = 64;

/// Ceil-divide; the per-port demand figures the overflow diagnostic reports.
std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

HaloTransport::HaloTransport(const Partition& part,
                             std::size_t halo_words_per_port,
                             std::size_t gather_words_per_node)
    : num_workers_(part.num_workers()),
      part_(&part),
      halo_words_per_port_(halo_words_per_port),
      region_(0) {
  const std::size_t w_count = num_workers_;
  block_offset_.assign(w_count * w_count + 1, 0);
  block_capacity_.assign(w_count * w_count, 0);
  std::size_t words = 0;
  for (std::size_t s = 0; s < w_count; ++s) {
    for (std::size_t d = 0; d < w_count; ++d) {
      block_offset_[s * w_count + d] = words;
      const std::size_t cut = part.link(s, d).src_out_slots.size();
      if (cut > 0) {
        const std::size_t payload =
            std::max(kMinPairPayloadWords, halo_words_per_port * cut);
        block_capacity_[s * w_count + d] = payload;
        words += cut + payload;  // lengths header + payload area
      }
    }
  }
  block_offset_.back() = words;

  gather_offset_.assign(w_count + 1, 0);
  for (std::size_t w = 0; w < w_count; ++w) {
    gather_offset_[w] = words;
    // Output rows are typically either constant-size (a color, a flag) or
    // degree-proportional (per-port orientations), so reserve for both: one
    // length word per node, the worker's full port count, and the per-node
    // budget on top. Virtual memory only — generosity is free.
    words += 1 + std::max(kMinGatherWords,
                          part.num_nodes(w) + part.num_local_ports(w) +
                              gather_words_per_node * part.num_nodes(w));
  }
  gather_offset_[w_count] = words;

  region_ = SharedRegion(words * sizeof(std::uint64_t));
}

std::uint64_t* HaloTransport::block(std::size_t src, std::size_t dst) const {
  return region_.as<std::uint64_t>() + block_offset_[src * num_workers_ + dst];
}

std::size_t HaloTransport::ship(std::size_t src,
                                const local::MessageSpan* local_arena,
                                const std::uint64_t* bank_words,
                                std::uint64_t epoch) const {
  std::size_t total_words = 0;
  const std::size_t halo_base = part_->num_local_ports(src);
  // One round's payload demand toward worker d (only epoch-current spans).
  const auto pair_demand = [&](std::size_t d) {
    const Partition::HaloLink& link = part_->link(src, d);
    std::size_t demand = 0;
    for (const std::uint32_t slot : link.src_out_slots) {
      const local::MessageSpan& span = local_arena[halo_base + slot];
      if (span.epoch == epoch) demand += span.length;
    }
    return demand;
  };
  for (std::size_t d = 0; d < num_workers_; ++d) {
    const Partition::HaloLink& link = part_->link(src, d);
    const std::size_t cut = link.src_out_slots.size();
    if (cut == 0) continue;
    const std::size_t capacity = block_capacity_[src * num_workers_ + d];
    const std::size_t demand = pair_demand(d);
    if (demand > capacity) {
      // Overflow: report what the round actually needed — the offending
      // pair's per-port demand and, across every pair this worker ships,
      // the smallest halo_words_per_port that would have fit the round.
      std::size_t min_knob = 1;
      for (std::size_t o = 0; o < num_workers_; ++o) {
        const std::size_t o_cut = part_->link(src, o).src_out_slots.size();
        if (o_cut == 0) continue;
        const std::size_t o_demand = pair_demand(o);
        if (o_demand > kMinPairPayloadWords) {
          min_knob = std::max(min_knob, div_up(o_demand, o_cut));
        }
      }
      DS_CHECK_MSG(
          false,
          "halo exchange overflow: pair (" + std::to_string(src) + " -> " +
              std::to_string(d) + ") staged " + std::to_string(demand) +
              " payload words across " + std::to_string(cut) +
              " cut ports (capacity " + std::to_string(capacity) +
              " words, observed demand " + std::to_string(div_up(demand, cut)) +
              " words/port); raise DistributedConfig::halo_words_per_port "
              "from " +
              std::to_string(halo_words_per_port_) + " to at least " +
              std::to_string(min_knob) + " to fit this round");
    }
    std::uint64_t* lengths = block(src, d);
    std::uint64_t* payload = lengths + cut;
    std::size_t used = 0;
    for (std::size_t i = 0; i < cut; ++i) {
      const local::MessageSpan& span =
          local_arena[halo_base + link.src_out_slots[i]];
      if (span.epoch != epoch || span.length == 0) {
        lengths[i] = 0;
        continue;
      }
      lengths[i] = span.length;
      std::memcpy(payload + used, bank_words + span.offset,
                  span.length * sizeof(std::uint64_t));
      used += span.length;
    }
    total_words += used;
  }
  return total_words;
}

void HaloTransport::patch(std::size_t dst, local::MessageSpan* local_arena,
                          std::uint64_t epoch) const {
  for (std::size_t s = 0; s < num_workers_; ++s) {
    const Partition::HaloLink& link = part_->link(s, dst);
    const std::size_t cut = link.dst_slots.size();
    if (cut == 0) continue;
    const std::uint64_t* lengths = block(s, dst);
    std::uint64_t offset = 0;
    const auto bank = static_cast<std::uint32_t>(1 + s);
    for (std::size_t i = 0; i < cut; ++i) {
      const std::uint64_t len = lengths[i];
      if (len == 0) continue;  // stale span in the dst arena stays ignored
      local_arena[link.dst_slots[i]] = local::MessageSpan{
          offset, epoch, static_cast<std::uint32_t>(len), bank};
      offset += len;
    }
  }
}

std::vector<const std::uint64_t*> HaloTransport::bank_bases(
    std::size_t w, const std::uint64_t* own_bank) const {
  std::vector<const std::uint64_t*> bases;
  fill_bank_bases(w, own_bank, bases);
  return bases;
}

void HaloTransport::fill_bank_bases(
    std::size_t w, const std::uint64_t* own_bank,
    std::vector<const std::uint64_t*>& bases) const {
  bases.assign(1 + num_workers_, nullptr);
  bases[0] = own_bank;
  for (std::size_t s = 0; s < num_workers_; ++s) {
    const std::size_t cut = part_->link(s, w).src_out_slots.size();
    if (cut == 0) continue;  // no spans carry this bank index
    bases[1 + s] = block(s, w) + cut;  // payload area after the lengths
  }
}

void HaloTransport::write_gather(std::size_t w,
                                 const std::vector<std::uint64_t>& words) {
  std::uint64_t* base = region_.as<std::uint64_t>() + gather_offset_[w];
  const std::size_t capacity = gather_offset_[w + 1] - gather_offset_[w] - 1;
  DS_CHECK_MSG(words.size() <= capacity,
               "output gather overflow (" + std::to_string(words.size()) +
                   " > " + std::to_string(capacity) +
                   " words); raise DistributedConfig::gather_words_per_node");
  base[0] = words.size();
  if (!words.empty()) {
    std::memcpy(base + 1, words.data(), words.size() * sizeof(std::uint64_t));
  }
}

std::pair<const std::uint64_t*, std::size_t> HaloTransport::read_gather(
    std::size_t w) const {
  const std::uint64_t* base = region_.as<std::uint64_t>() + gather_offset_[w];
  return {base + 1, static_cast<std::size_t>(base[0])};
}

// ---- ShmTransport: the per-worker Transport view -------------------------

void ShmTransport::set_recorder(obs::Recorder* rec) {
  recorder_ = rec;
  if (rec != nullptr) {
    barrier_wait_us_ = rec->metrics().histogram("shm.barrier.wait.us");
    halo_words_ = rec->metrics().counter("shm.halo.words");
  } else {
    barrier_wait_us_ = obs::Histogram{};
    halo_words_ = obs::Counter{};
  }
}

void ShmTransport::barrier() {
  if (recorder_ != nullptr) {
    const std::uint64_t t0 = recorder_->now_us();
    control_->barrier.wait(control_->abort_flag, idle_poll_);
    barrier_wait_us_.record(recorder_->now_us() - t0);
    return;
  }
  control_->barrier.wait(control_->abort_flag, idle_poll_);
}

std::size_t ShmTransport::sync_liveness(std::size_t my_not_done) {
  const std::size_t slot = syncs_++ & 1;
  control_->counters(worker_)->not_done[slot].store(
      my_not_done, std::memory_order_relaxed);
  barrier();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < part_->num_workers(); ++i) {
    total += control_->counters(i)->not_done[slot].load(
        std::memory_order_relaxed);
  }
  return static_cast<std::size_t>(total);
}

void ShmTransport::ship(const local::MessageSpan* local_arena,
                        const std::uint64_t* bank_words, std::uint64_t epoch,
                        const RoundTotals& mine) {
  const std::size_t shipped =
      blocks_->ship(worker_, local_arena, bank_words, epoch);
  halo_words_.add(shipped);
  WorkerCounters* counters = control_->counters(worker_);
  counters->senders.store(mine.senders, std::memory_order_relaxed);
  counters->messages.store(mine.messages, std::memory_order_relaxed);
  counters->payload_words.store(mine.payload_words, std::memory_order_relaxed);
  barrier();  // all halo blocks written, counters published
}

Transport::RoundTotals ShmTransport::round_totals() const {
  // Only valid between the ship barrier and the liveness barrier: after the
  // latter a fast peer may already overwrite its counter slot for the next
  // round.
  RoundTotals totals;
  for (std::size_t i = 0; i < part_->num_workers(); ++i) {
    const WorkerCounters* c = control_->counters(i);
    totals.senders += c->senders.load(std::memory_order_relaxed);
    totals.messages += c->messages.load(std::memory_order_relaxed);
    totals.payload_words += c->payload_words.load(std::memory_order_relaxed);
  }
  // Every worker reads the same shared counter slots, so the sums are
  // fleet-wide on any rank.
  totals.aggregated = true;
  return totals;
}

void ShmTransport::patch(local::MessageSpan* local_arena,
                         std::uint64_t epoch) {
  blocks_->patch(worker_, local_arena, epoch);
}

void ShmTransport::update_bank_bases(
    std::vector<const std::uint64_t*>& bases,
    const std::uint64_t* own_bank) const {
  blocks_->fill_bank_bases(worker_, own_bank, bases);
}

void ShmTransport::gather(const std::vector<std::uint64_t>& words) {
  blocks_->write_gather(worker_, words);
  barrier();  // gather rows visible to worker 0
}

std::pair<const std::uint64_t*, std::size_t> ShmTransport::gathered(
    std::size_t w) const {
  return blocks_->read_gather(w);
}

void ShmTransport::abort(const std::string& msg) {
  control_->raise_abort(msg.c_str());
}

}  // namespace ds::dist
