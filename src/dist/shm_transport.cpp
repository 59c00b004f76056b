#include "dist/shm_transport.hpp"

#include <atomic>
#include <string>

#include "support/check.hpp"

namespace ds::dist {

HaloTransport::HaloTransport(const Partition& part)
    : part_(&part),
      halo_(part.num_workers()),
      gathered_(part.num_workers()) {
  for (std::size_t w = 0; w < halo_.size(); ++w) {
    halo_[w].spans.resize(part.num_out_halo(w));
  }
}

std::size_t HaloTransport::ship(std::size_t src,
                                const local::MessageSpan* local_arena,
                                const std::uint64_t* bank_words,
                                std::uint32_t epoch) {
  Halo& out = halo_[src];
  out.words.clear();
  const local::MessageSpan* staged =
      local_arena + part_->num_local_ports(src);
  const auto bank = static_cast<std::uint32_t>(1 + src);
  for (std::size_t slot = 0; slot < out.spans.size(); ++slot) {
    const local::MessageSpan& span = staged[slot];
    if (span.epoch != epoch || span.length == 0) {
      // Not sent. Untagged rather than left stale: a run aborted mid-round
      // may have tagged this slot with an epoch the next run reuses.
      out.spans[slot].epoch = 0;
      continue;
    }
    // A broadcast is copied once per cut port, so the halo words can
    // outgrow the bank: check the 32-bit offset before it narrows.
    DS_CHECK_MSG(span.length <= local::kMaxBankWords - out.words.size(),
                 "halo buffer: a round's cut traffic exceeds 2^32 - 1 words");
    out.spans[slot] = local::MessageSpan{
        .offset = static_cast<std::uint32_t>(out.words.size()),
        .length = span.length,
        .epoch = epoch,
        .bank = bank};
    out.words.insert(out.words.end(), bank_words + span.offset,
                     bank_words + span.offset + span.length);
  }
  return out.words.size();
}

void HaloTransport::patch(std::size_t dst, local::MessageSpan* local_arena,
                          std::uint32_t epoch) const {
  for (std::size_t s = 0; s < halo_.size(); ++s) {
    const Partition::HaloLink& link = part_->link(s, dst);
    const std::vector<local::MessageSpan>& shipped = halo_[s].spans;
    for (std::size_t i = 0; i < link.dst_slots.size(); ++i) {
      const local::MessageSpan& span = shipped[link.src_out_slots[i]];
      // A stale span in the dst arena stays ignored by the Inbox.
      if (span.epoch == epoch) local_arena[link.dst_slots[i]] = span;
    }
  }
}

void HaloTransport::fill_bank_bases(
    std::size_t w, const std::uint64_t* own_bank,
    std::vector<const std::uint64_t*>& bases) const {
  bases.assign(1 + halo_.size(), nullptr);
  bases[0] = own_bank;
  for (std::size_t s = 0; s < halo_.size(); ++s) {
    if (part_->link(s, w).dst_slots.empty()) continue;  // no spans from s
    bases[1 + s] = halo_[s].words.data();
  }
}

// ---- ShmTransport: the per-rank Transport view ---------------------------

void ShmTransport::set_recorder(obs::Recorder* rec) {
  recorder_ = rec;
  if (rec != nullptr) {
    barrier_wait_us_ = rec->metrics().histogram("shm.barrier.wait.us");
    shipped_words_ = rec->metrics().counter("shm.halo.words");
  } else {
    barrier_wait_us_ = obs::Histogram{};
    shipped_words_ = obs::Counter{};
  }
}

void ShmTransport::barrier() {
  if (recorder_ != nullptr) {
    const std::uint64_t t0 = recorder_->now_us();
    control_->barrier.wait(control_->abort_flag);
    barrier_wait_us_.record(recorder_->now_us() - t0);
    return;
  }
  control_->barrier.wait(control_->abort_flag);
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
                        const std::uint64_t* bank_words, std::uint32_t epoch) {
  shipped_words_.add(halo_->ship(worker_, local_arena, bank_words, epoch));
  barrier();  // every halo buffer written
}

void ShmTransport::patch(local::MessageSpan* local_arena,
                         std::uint32_t epoch) {
  halo_->patch(worker_, local_arena, epoch);
}

void ShmTransport::update_bank_bases(
    std::vector<const std::uint64_t*>& bases,
    const std::uint64_t* own_bank) const {
  halo_->fill_bank_bases(worker_, own_bank, bases);
}

void ShmTransport::gather(const std::vector<std::uint64_t>& words) {
  halo_->write_gather(worker_, words);
  barrier();  // gather rows visible to every rank
}

std::pair<const std::uint64_t*, std::size_t> ShmTransport::gathered(
    std::size_t w) const {
  return halo_->read_gather(w);
}

void ShmTransport::abort(const std::string& msg) {
  control_->raise_abort(msg.c_str());
}

}  // namespace ds::dist
