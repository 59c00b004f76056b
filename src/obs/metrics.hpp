#pragma once

/// \file metrics.hpp
/// Named-metric registry of the observability layer (obs/).
///
/// A `Metrics` owns a set of named metrics — counters, gauges and summary
/// histograms — each backed by one or more `Cell` slots. Slots exist so
/// concurrent writers (per-peer counters of the TCP transport) can
/// increment without synchronization: every slot has exactly one writing
/// thread, and `snapshot()` aggregates the slots on the reading thread.
///
/// Instrumented code holds `Counter` / `Gauge` / `Histogram` *handles*: one
/// raw cell pointer each. A default-constructed handle is null and every
/// operation on it is a no-op behind a single branch — that is the entire
/// disabled path, so code can unconditionally call `counter.add(x)` in a hot
/// loop and pay (nearly) nothing when observability is off
/// (bench_micro's BM_MetricsOverhead asserts this stays in the noise).
///
/// Histograms are *summary* histograms (count/sum/min/max), not bucketed —
/// enough for per-phase timing reports and stragglers without committing to
/// a bucket layout in the wire format.
///
/// Registration (`counter()` / `gauge()` / `histogram()`) is not thread-safe
/// and must happen before concurrent writers start; the returned handles are
/// stable for the lifetime of the registry (metrics live in a deque and are
/// never erased). Debug builds enforce the ordering half of that contract:
/// once a reader consumed the registry (`snapshot()`, or a live
/// `SnapshotPublisher` publish), registering a *new* name DS_CHECK-fails —
/// so a serving loop cannot race a late registration silently. Re-finding
/// an existing name stays legal (every run re-creates the same
/// `RoundInstruments`), and `merge()` is exempt (the post-gather fleet
/// merge legitimately introduces peer-only names).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace ds::obs {

/// What a metric's cell aggregates as.
enum class Kind : std::uint8_t {
  kCounter = 0,    ///< monotone sum (add); merges by summing
  kGauge = 1,      ///< last-set value (set); merges by max — deterministic
                   ///  gauges agree across ranks, so max is the identity
  kHistogram = 2,  ///< summary histogram (record); merges component-wise
};

[[nodiscard]] const char* kind_name(Kind k);

/// Gauges under the `clock.offset.` prefix store a bit-cast *signed* µs
/// value (a rank's clock can run ahead of rank 0's); renderers must
/// reinterpret them as int64 instead of printing 2^64-ish garbage.
[[nodiscard]] bool signed_gauge_name(const std::string& name);

/// One slot's accumulator. All three kinds share the layout; the kind
/// decides which fields are meaningful and how cells fold.
struct Cell {
  std::uint64_t count = 0;  ///< samples (histogram) / add() calls (counter)
  std::uint64_t sum = 0;    ///< total (counter/histogram) / value (gauge)
  std::uint64_t min = UINT64_MAX;  ///< histogram only
  std::uint64_t max = 0;           ///< histogram only
};

/// Folds `from` into `into` by `kind`: counters and histograms add count
/// and sum, gauges keep the max; min and max combine for every kind. The
/// one rule behind slot aggregation, publishing and the fleet merge.
void fold(Kind kind, Cell& into, const Cell& from);

/// Aggregated view of one metric, all slots merged.
struct MetricSnapshot : Cell {
  std::string name;
  Kind kind = Kind::kCounter;

  /// The headline value: the sum for counters/histograms, the (max-merged)
  /// set value for gauges.
  [[nodiscard]] std::uint64_t value() const { return sum; }

  /// A histogram's mean sample (0 when empty).
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Monotone counter handle. Null (default-constructed) = disabled no-op.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t v) {
    if (cell_ != nullptr) {
      cell_->sum += v;
      ++cell_->count;
    }
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }

 private:
  friend class Metrics;
  explicit Counter(Cell* cell) : cell_(cell) {}
  Cell* cell_ = nullptr;
};

/// Last-value gauge handle. Null (default-constructed) = disabled no-op.
class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t v) {
    if (cell_ != nullptr) {
      cell_->sum = v;
      cell_->count = 1;
      cell_->min = v;
      cell_->max = v;
    }
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }

 private:
  friend class Metrics;
  explicit Gauge(Cell* cell) : cell_(cell) {}
  Cell* cell_ = nullptr;
};

/// Summary-histogram handle. Null (default-constructed) = disabled no-op.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) {
    if (cell_ != nullptr) {
      ++cell_->count;
      cell_->sum += v;
      if (v < cell_->min) cell_->min = v;
      if (v > cell_->max) cell_->max = v;
    }
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }

 private:
  friend class Metrics;
  explicit Histogram(Cell* cell) : cell_(cell) {}
  Cell* cell_ = nullptr;
};

/// The registry. See the file comment for the threading contract.
class Metrics {
 public:
  /// Handle to slot `slot` of counter `name`, creating the metric with
  /// `slots` slots on first registration. Re-registration of an existing
  /// name must agree on the kind (throws otherwise) and never shrinks the
  /// slot count.
  Counter counter(const std::string& name, std::size_t slots = 1,
                  std::size_t slot = 0);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, std::size_t slots = 1,
                      std::size_t slot = 0);

  /// All metrics with their slots aggregated, in registration order.
  /// Seals the registry against new-name registration (debug builds).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Metric `i` (registration order) with its slots aggregated. Does not
  /// seal: the recorder's mark/drain codec reads its own registry on the
  /// owning thread, between registrations, and races no reader.
  [[nodiscard]] MetricSnapshot aggregate(std::size_t i) const;

  [[nodiscard]] std::size_t num_metrics() const { return metrics_.size(); }

  // Per-slot introspection, in registration order — the `SnapshotPublisher`
  // and the Prometheus/status renderers need the unaggregated cells
  // (per-peer tcp counters keep one slot per peer). The returned references
  // are stable (deque storage) but the cell values belong to their writer
  // thread; read them only from the owning thread or through a published
  // snapshot.
  [[nodiscard]] const std::string& name_of(std::size_t i) const;
  [[nodiscard]] Kind kind_of(std::size_t i) const;
  [[nodiscard]] std::size_t num_slots(std::size_t i) const;
  [[nodiscard]] const Cell& cell(std::size_t i, std::size_t slot) const;

  /// Marks the registry as consumed by a reader: registering a *new* name
  /// DS_CHECK-fails (debug builds) until `reset()`. `snapshot()` seals
  /// implicitly; `SnapshotPublisher::publish` seals explicitly.
  void seal() const { sealed_ = true; }
  [[nodiscard]] bool is_sealed() const { return sealed_; }

  /// Merges an aggregated snapshot into this registry by name: counters and
  /// histograms accumulate, gauges keep the max. Creates single-slot
  /// metrics for names not registered here. The merge target is always slot
  /// 0 — local writers keep their own slots.
  void merge(const MetricSnapshot& s);

 private:
  struct Metric {
    std::string name;
    Kind kind = Kind::kCounter;
    /// Deque, not vector: a later registration may grow the slot count, and
    /// outstanding handles point at individual cells.
    std::deque<Cell> cells;
  };

  Metric& find_or_create(const std::string& name, Kind kind,
                         std::size_t slots, bool from_merge = false);

  /// Deque: stable Metric addresses under growth.
  std::deque<Metric> metrics_;
  /// Set by snapshot()/seal(); guards registration ordering in debug
  /// builds (mutable: snapshot() is const).
  mutable bool sealed_ = false;
};

}  // namespace ds::obs
