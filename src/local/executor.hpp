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
#include "local/message_arena.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"

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
/// vector plus offsets). This — not `Executor::program` — is the
/// executor-portable way to read results: with TCP ranks only the owning
/// rank's process holds a node's program instance.
class OutputTable {
 public:
  /// Starts a fresh table expecting `n` rows appended in node order.
  void start(std::size_t n) {
    words_.clear();
    offsets_.clear();
    offsets_.reserve(n + 1);
    offsets_.push_back(0);
  }
  void clear() {
    words_.clear();
    offsets_.clear();
  }
  /// Appends node `offsets.size() - 1`'s row.
  void append_row(const std::uint64_t* words, std::size_t count) {
    words_.insert(words_.end(), words, words + count);
    offsets_.push_back(words_.size());
  }

  /// True once rows have been gathered (i.e. an OutputFn was installed
  /// before the last run).
  [[nodiscard]] bool ready() const { return !offsets_.empty(); }
  [[nodiscard]] std::size_t size() const {
    return ready() ? offsets_.size() - 1 : 0;
  }
  /// Node v's serialized output words.
  [[nodiscard]] MessageView row(graph::NodeId v) const {
    DS_CHECK_MSG(ready(), "no outputs gathered: set_output_fn before run()");
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

/// A synchronous executor bound to one communication graph.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs one program instance per node for at most `max_rounds` rounds,
  /// with UIDs per `ids` and node coins forked from `seed`. Returns the
  /// number of executed rounds (also added to `meter` if given). Throws if
  /// the round limit is hit with unhalted nodes. The program instances stay
  /// alive inside the executor until the next run (or its destruction) so
  /// callers can read their outputs via `program`.
  virtual std::size_t run(const ProgramFactory& factory, IdStrategy ids,
                          std::uint64_t seed, std::size_t max_rounds,
                          CostMeter* meter = nullptr) = 0;

  /// The program instance of node `v` from the most recent `run`.
  [[nodiscard]] virtual const NodeProgram& program(graph::NodeId v) const = 0;

  /// The topology this executor runs on: its ports, and the UIDs of the
  /// most recent run.
  [[nodiscard]] virtual const NetworkTopology& topology() const = 0;

  /// Installs (or clears, with {}) the per-round stats hook for future runs.
  virtual void set_stats_sink(RoundStatsSink sink) = 0;

  /// Installs (or clears, with nullptr) the observability recorder for
  /// future runs. Not owned; must outlive the runs it observes. When set,
  /// executors register phase metrics and emit trace spans into it; when
  /// null, the instrumentation is a no-op (see obs/metrics.hpp).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Installs (or clears, with {}) the per-node output serializer applied
  /// at the end of future runs; read the result via `outputs()`. This is
  /// the only result channel that works on every executor — the
  /// distributed ones run the serializer inside the owning rank.
  void set_output_fn(OutputFn fn) { output_fn_ = std::move(fn); }

  /// The gathered per-node outputs of the most recent run. Throws unless an
  /// OutputFn was installed before that run.
  [[nodiscard]] const OutputTable& outputs() const {
    DS_CHECK_MSG(outputs_.ready(),
                 "no outputs gathered: set_output_fn before run()");
    return outputs_;
  }

  [[nodiscard]] const graph::Graph& graph() const {
    return topology().graph();
  }
  /// The UIDs of the most recent run.
  [[nodiscard]] const std::vector<std::uint64_t>& uids() const {
    return topology().uids();
  }

 protected:
  /// Rebuilds `outputs_` by applying the installed OutputFn to every
  /// program of the most recent run (via the virtual `program()`); clears
  /// the table when no OutputFn is installed. The sequential executor
  /// calls this at the end of run(); the distributed executors gather rows
  /// from their ranks instead.
  void collect_outputs_from_programs();

  OutputFn output_fn_;
  OutputTable outputs_;
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
