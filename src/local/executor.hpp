#pragma once

/// \file executor.hpp
/// Abstract interface over LOCAL-model executors, so algorithms that run
/// genuine message-passing programs (Luby MIS, trial coloring, sinkless
/// orientation, ...) can be pointed at the sequential `Network` or a
/// multi-rank `dist::DistributedNetwork` (thread ranks) at runtime.
///
/// An executor is bound to one communication graph: it builds the port
/// structure (and, when distributed, the partition) once. Each `run` brings
/// the identity of that execution — the `IdStrategy` and the seed — and
/// re-derives the UIDs and node coins before it constructs programs, just
/// as a LOCAL execution fixes the network and draws fresh coins. So a Las
/// Vegas algorithm runs all its trials on one executor.
///
/// A run is one value. In the LOCAL model all a node leaves behind when it
/// halts is its output, so `run` returns the round count with the gathered
/// output rows, and the programs die inside it: each rank serializes its
/// rows, destroys its programs on its own thread, then joins the gather.
/// The gather is the one result channel, and the only one a TCP fleet has.
///
/// Determinism contract: for a fixed (graph, IdStrategy, seed), every run
/// must produce bit-identical per-node program outputs and the same round
/// count — regardless of executor kind, thread count, or which runs the
/// executor served before. This holds because node programs only interact
/// through port-indexed messages, every node's randomness is the pure
/// fork(seed, uid), and executors separate the send and receive phases of
/// each round with a barrier.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/cost.hpp"
#include "local/ids.hpp"
#include "local/message_arena.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "support/check.hpp"

namespace ds::obs {
class Recorder;
}  // namespace ds::obs

namespace ds::local {

/// Serializes the output of one node's final program state, appending words
/// to `out` (cleared by the caller per node). Runs in whatever thread or
/// *process* owns the node — thread ranks invoke it concurrently, TCP
/// ranks inside the owning process, which ships only the words — so it
/// must be a pure function of (node, program): side effects on captured
/// state are not observable after `run()` returns.
using OutputFn = std::function<void(graph::NodeId, const NodeProgram&,
                                    std::vector<std::uint64_t>&)>;

/// Per-node output rows gathered after a run, CSR-packed (one flat word
/// vector plus offsets).
class OutputTable {
 public:
  /// Starts a fresh table expecting `n` rows appended in node order.
  void start(std::size_t n) {
    words_.clear();
    offsets_.clear();
    offsets_.reserve(n + 1);
    offsets_.push_back(0);
  }
  /// Appends node `offsets.size() - 1`'s row.
  void append_row(const std::uint64_t* words, std::size_t count) {
    words_.insert(words_.end(), words, words + count);
    offsets_.push_back(words_.size());
  }

  /// Number of rows; 0 for a run without an OutputFn.
  [[nodiscard]] std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Node v's serialized output words.
  [[nodiscard]] MessageView row(graph::NodeId v) const {
    DS_CHECK(v + 1 < offsets_.size());
    return {words_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  /// Convenience for single-word rows.
  [[nodiscard]] std::uint64_t value(graph::NodeId v) const {
    const MessageView r = row(v);
    DS_CHECK(r.size() == 1);
    return r[0];
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> offsets_;
};

/// What one run leaves behind, as in the LOCAL model: the number of
/// executed rounds and every node's output.
struct RunResult {
  std::size_t rounds = 0;
  /// One row per node when the run was given an OutputFn, else empty.
  OutputTable outputs;
};

/// A synchronous executor bound to one communication graph.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs one program instance per node for at most `max_rounds` rounds,
  /// with UIDs per `ids` and node coins forked from `seed`; `factory` builds
  /// each rank's programs as one block. `output`, when non-empty,
  /// serializes every node's final program state in the rank that owns it,
  /// and the result carries the gathered rows. Every program is destroyed
  /// before `run` returns or throws, on the thread of the rank that built
  /// it. The round count is also added to `meter` if given. Throws if the
  /// round limit is hit with unhalted nodes.
  virtual RunResult run(const ProgramFactory& factory, const OutputFn& output,
                        IdStrategy ids, std::uint64_t seed,
                        std::size_t max_rounds,
                        CostMeter* meter = nullptr) = 0;

  /// Installs (or clears, with {}) the per-round stats hook for future runs.
  virtual void set_stats_sink(RoundStatsSink sink) = 0;

  /// Installs (or clears, with nullptr) the observability recorder for
  /// future runs. Not owned; must outlive the runs it observes. When set,
  /// executors register phase metrics and emit trace spans into it; when
  /// null, the instrumentation is a no-op (see obs/metrics.hpp).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 private:
  obs::Recorder* recorder_ = nullptr;
};

/// Factory producing an executor for a communication graph. Algorithms
/// accept one of these (empty = sequential `Network`) so the executor kind
/// is selectable per invocation without touching program code. They call
/// it once per invocation and run every trial on the result; the pointer
/// is shared so a factory may hand out an executor it keeps (the serve
/// daemon's resident one).
using ExecutorFactory =
    std::function<std::shared_ptr<Executor>(const graph::Graph&)>;

/// Instantiates `factory` if non-empty, else the sequential `Network`.
std::shared_ptr<Executor> make_executor(const ExecutorFactory& factory,
                                        const graph::Graph& g);

}  // namespace ds::local
