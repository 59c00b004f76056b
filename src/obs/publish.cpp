#include "obs/publish.hpp"

#include <algorithm>
#include <chrono>

namespace ds::obs {

namespace {

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* health_name(Health h) {
  switch (h) {
    case Health::kIdle:
      return "idle";
    case Health::kRunning:
      return "running";
    case Health::kCompleted:
      return "completed";
    case Health::kAborted:
      return "aborted";
    case Health::kDraining:
      return "draining";
  }
  return "?";
}

MetricSnapshot PublishedMetric::aggregate() const {
  MetricSnapshot s;
  s.name = name;
  s.kind = kind;
  for (const Cell& c : cells) fold(kind, s, c);
  return s;
}

SnapshotPublisher::Buffer* SnapshotPublisher::ensure_buffer(const Metrics& m) {
  Buffer* cur = current_.load(std::memory_order_relaxed);
  bool fits = cur != nullptr && cur->layout->rows.size() == m.num_metrics();
  if (fits) {
    for (std::size_t i = 0; i < m.num_metrics(); ++i) {
      if (cur->layout->rows[i].slots != m.num_slots(i)) {
        fits = false;
        break;
      }
    }
  }
  if (fits) return cur;

  // The registry grew (a registration boundary — never the round path past
  // the first publish): build a new generation, pre-fill it so a reader
  // landing between the pointer swap and the first seqlock write sees live
  // values instead of zeros, then swap it in. Old generations stay alive in
  // buffers_/layouts_ for readers still copying from them.
  auto layout = std::make_unique<Layout>();
  layout->rows.reserve(m.num_metrics());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < m.num_metrics(); ++i) {
    Layout::Row row;
    row.name = m.name_of(i);
    row.kind = m.kind_of(i);
    row.slots = m.num_slots(i);
    row.offset = offset;
    offset += row.slots * 4;
    layout->rows.push_back(std::move(row));
  }
  layout->cell_words = offset;

  auto buf = std::make_unique<Buffer>();
  buf->layout = layout.get();
  buf->words = std::make_unique<std::atomic<std::uint64_t>[]>(
      kHeaderWords + layout->cell_words);
  for (std::size_t w = 0; w < kHeaderWords; ++w) {
    buf->words[w].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < layout->rows.size(); ++i) {
    const Layout::Row& row = layout->rows[i];
    for (std::size_t s = 0; s < row.slots; ++s) {
      const Cell& c = m.cell(i, s);
      std::atomic<std::uint64_t>* w =
          buf->words.get() + kHeaderWords + row.offset + s * 4;
      w[0].store(c.count, std::memory_order_relaxed);
      w[1].store(c.sum, std::memory_order_relaxed);
      w[2].store(c.min, std::memory_order_relaxed);
      w[3].store(c.max, std::memory_order_relaxed);
    }
  }

  Buffer* raw = buf.get();
  layouts_.push_back(std::move(layout));
  buffers_.push_back(std::move(buf));
  current_.store(raw, std::memory_order_release);
  return raw;
}

void SnapshotPublisher::publish(const Metrics& m, std::uint64_t rounds) {
  m.seal();  // late new-name registration would race the readers
  Buffer* buf = ensure_buffer(m);
  const Layout& layout = *buf->layout;

  const std::uint64_t s = seq_.load(std::memory_order_relaxed);
  seq_.store(s + 1, std::memory_order_relaxed);  // odd: write in progress
  std::atomic_thread_fence(std::memory_order_release);

  const std::uint64_t version =
      publishes_.load(std::memory_order_relaxed) + 1;
  buf->words[0].store(rounds, std::memory_order_relaxed);
  buf->words[1].store(version, std::memory_order_relaxed);
  for (std::size_t i = 0; i < layout.rows.size(); ++i) {
    const Layout::Row& row = layout.rows[i];
    for (std::size_t slot = 0; slot < row.slots; ++slot) {
      const Cell& c = m.cell(i, slot);
      std::atomic<std::uint64_t>* w =
          buf->words.get() + kHeaderWords + row.offset + slot * 4;
      w[0].store(c.count, std::memory_order_relaxed);
      w[1].store(c.sum, std::memory_order_relaxed);
      w[2].store(c.min, std::memory_order_relaxed);
      w[3].store(c.max, std::memory_order_relaxed);
    }
  }

  std::atomic_thread_fence(std::memory_order_release);
  seq_.store(s + 2, std::memory_order_release);
  publishes_.store(version, std::memory_order_relaxed);
}

bool SnapshotPublisher::read(PublishedSnapshot& out) const {
  std::vector<std::uint64_t> copy;
  const Layout* layout = nullptr;
  // Bounded spin: a publish is a few hundred relaxed stores, so a handful
  // of retries suffices; the cap only matters if the writer process dies
  // mid-publish, where a stale `false` beats a wedged server thread.
  for (std::size_t attempt = 0; attempt < 1000000; ++attempt) {
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // writer mid-publish; spin (publishes are short)
    const Buffer* buf = current_.load(std::memory_order_acquire);
    if (buf == nullptr) return false;  // nothing published yet
    layout = buf->layout;
    copy.resize(kHeaderWords + layout->cell_words);
    for (std::size_t w = 0; w < copy.size(); ++w) {
      copy[w] = buf->words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == s1) break;  // consistent
    layout = nullptr;  // torn; retry
  }
  if (layout == nullptr) return false;

  out.rounds = copy[0];
  out.version = copy[1];
  out.metrics.clear();
  out.metrics.reserve(layout->rows.size());
  for (const Layout::Row& row : layout->rows) {
    PublishedMetric pm;
    pm.name = row.name;
    pm.kind = row.kind;
    pm.cells.resize(row.slots);
    for (std::size_t s = 0; s < row.slots; ++s) {
      const std::uint64_t* w = copy.data() + kHeaderWords + row.offset + s * 4;
      pm.cells[s].count = w[0];
      pm.cells[s].sum = w[1];
      pm.cells[s].min = w[2];
      pm.cells[s].max = w[3];
    }
    out.metrics.push_back(std::move(pm));
  }
  return true;
}

void SnapshotPublisher::set_info(
    std::vector<std::pair<std::string, std::string>> info) {
  const std::lock_guard<std::mutex> lock(meta_mu_);
  info_ = std::move(info);
}

std::vector<std::pair<std::string, std::string>> SnapshotPublisher::info()
    const {
  const std::lock_guard<std::mutex> lock(meta_mu_);
  return info_;
}

void SnapshotPublisher::run_started(const std::string& label,
                                    std::uint64_t params_digest) {
  {
    const std::lock_guard<std::mutex> lock(meta_mu_);
    run_label_ = label;
    run_start_us_ = wall_now_us();
    run_params_digest_ = params_digest;
  }
  set_health(Health::kRunning);
}

void SnapshotPublisher::run_finished(bool ok, std::uint64_t output_digest) {
  PublishedSnapshot snap;
  const std::uint64_t rounds = read(snap) ? snap.rounds : 0;
  {
    const std::lock_guard<std::mutex> lock(meta_mu_);
    RunRecord rec;
    rec.id = next_run_id_++;
    rec.label = run_label_.empty() ? "(unnamed run)" : run_label_;
    rec.rounds = rounds;
    rec.wall_us = run_start_us_ == 0 ? 0 : wall_now_us() - run_start_us_;
    rec.ok = ok;
    rec.params_digest = run_params_digest_;
    rec.output_digest = output_digest;
    history_.push_back(std::move(rec));
    while (history_.size() > kHistoryCapacity) history_.pop_front();
  }
  set_health(ok ? Health::kCompleted : Health::kAborted);
}

std::vector<RunRecord> SnapshotPublisher::history() const {
  const std::lock_guard<std::mutex> lock(meta_mu_);
  return {history_.begin(), history_.end()};
}

void SnapshotPublisher::set_profile_source(
    std::function<std::string()> source) {
  const std::lock_guard<std::mutex> lock(meta_mu_);
  profile_source_ = std::move(source);
}

bool SnapshotPublisher::has_profile_source() const {
  const std::lock_guard<std::mutex> lock(meta_mu_);
  return static_cast<bool>(profile_source_);
}

std::string SnapshotPublisher::profile_text() const {
  std::function<std::string()> source;
  {
    // Copy out and invoke unlocked: symbolization can be slow and must not
    // hold up writers touching info/history.
    const std::lock_guard<std::mutex> lock(meta_mu_);
    source = profile_source_;
  }
  return source ? source() : std::string();
}

}  // namespace ds::obs
