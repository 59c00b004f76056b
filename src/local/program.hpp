#pragma once

/// \file program.hpp
/// The node-program abstraction of the LOCAL-model simulator: the per-node
/// environment, the `NodeProgram` interface that algorithms implement, and
/// the `ProgramFactory` every executor builds programs with. Split out of
/// network.hpp so that every executor (sequential, thread ranks, TCP ranks)
/// runs the same program API.
///
/// A node's program depends only on its own environment — its ID, its ports
/// and its private coins — exactly as in the LOCAL model. The distributed
/// executors rely on this: each rank constructs only the programs of the
/// nodes it owns, as one `ProgramBlock` — a typed array, so a run holds no
/// heap object per node and a rank's programs are freed in one call, on
/// that rank's thread, before the run returns.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "local/message_arena.hpp"
#include "support/rng.hpp"

namespace ds::local {

/// Read-only environment a node program is constructed with, built by
/// `local::node_env` (local/topology.hpp) on every executor and on the
/// in-situ path. Trivially copyable; a program copies out only the fields
/// it reads, since a rank's block holds one program per owned node. Its two
/// pointers borrow the executor's tables — its graph and the run's UIDs in
/// its `NetworkTopology`, or on the in-situ path the rank-local CSR. Every
/// program dies inside the run that built it, so both are valid for the
/// program's whole life.
struct NodeEnv {
  graph::NodeId node = 0;        ///< dense index of this node
  std::uint64_t uid = 0;         ///< unique LOCAL-model identifier
  std::size_t n = 0;             ///< number of nodes (global knowledge)
  std::size_t degree = 0;        ///< this node's degree
  /// This node's adjacency row (`degree` node ids, indexed by port).
  const graph::NodeId* neighbors = nullptr;
  /// UID table indexed by node id, or nullptr where uid == node id
  /// (sequential IDs, on every executor and on the in-situ path).
  const std::uint64_t* uids = nullptr;
  /// Private randomness stream of this node.
  Rng rng{0};

  /// UID of the neighbor on port p.
  [[nodiscard]] std::uint64_t neighbor_uid(std::size_t p) const {
    const graph::NodeId w = neighbors[p];
    return uids != nullptr ? uids[w] : w;
  }
};
static_assert(std::is_trivially_copyable_v<NodeEnv>);

/// Per-node program. One round = send() at every node, message delivery,
/// then receive() at every node. A node that returns true from done() stops
/// being scheduled; the run ends when all nodes are done.
///
/// Programs serialize straight into the executor's message arenas through
/// the writer-style `send(round, Outbox&)` / `receive(round, Inbox&)` pair
/// (zero heap allocation per round).
///
/// Executor contract (holds for every executor in the library): within one
/// round, all send() calls complete before any receive() observes a message,
/// and distinct nodes' programs may be invoked concurrently. A program must
/// therefore only touch its own state — which the LOCAL model demands
/// anyway — and all executors then produce bit-identical per-node outputs
/// for the same (graph, IdStrategy, seed).
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Serializes the outgoing message of each port into `out` (ports in
  /// increasing order, unwritten ports send the empty message). Called once
  /// per round until done.
  virtual void send(std::size_t round, Outbox& out) = 0;

  /// Receives the messages that arrived this round, indexed by port. The
  /// views borrow executor memory and are valid only during the call.
  virtual void receive(std::size_t round, const Inbox& inbox) = 0;

  /// True when this node has halted (its output is final).
  [[nodiscard]] virtual bool done() const = 0;
};

/// The programs of one contiguous node range [first, last), stored as one
/// array: `at(i)` is node first + i's program, found by address arithmetic
/// over the array rather than through a pointer per node or a virtual call.
/// Destroying the block destroys every program in it.
class ProgramBlock {
 public:
  virtual ~ProgramBlock() = default;
  ProgramBlock(const ProgramBlock&) = delete;
  ProgramBlock& operator=(const ProgramBlock&) = delete;

  /// Number of programs (last - first).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The program of node first + i; requires i < size().
  [[nodiscard]] NodeProgram& at(std::size_t i) {
    return *std::launder(reinterpret_cast<NodeProgram*>(first_ + i * stride_));
  }
  [[nodiscard]] const NodeProgram& at(std::size_t i) const {
    return *std::launder(
        reinterpret_cast<const NodeProgram*>(first_ + i * stride_));
  }

 protected:
  ProgramBlock() = default;

  /// Called by the derived block once its `size` programs are in place:
  /// `first` is program 0's `NodeProgram` base, and the base of program i
  /// lies `i * stride` bytes past it.
  void bind(NodeProgram* first, std::size_t stride, std::size_t size) {
    first_ = reinterpret_cast<std::byte*>(first);
    stride_ = stride;
    size_ = size;
  }

 private:
  std::byte* first_ = nullptr;
  std::size_t stride_ = 0;
  std::size_t size_ = 0;
};

/// Environment of node v, built by the executor (`NetworkTopology::make_env`,
/// or `node_env` over the in-situ rank's CSR).
using EnvFn = std::function<NodeEnv(graph::NodeId)>;

/// Factory producing the programs of the node range [first, last) in one
/// call, node v's from `env_of(v)`. It must be pure per node — program v a
/// function of `env_of(v)` and immutable captured state only: a
/// distributed rank calls it for its owned range alone, and thread ranks
/// call it concurrently. The returned block holds last - first programs.
/// Build one with `programs<T>`.
using ProgramFactory = std::function<std::unique_ptr<ProgramBlock>(
    graph::NodeId first, graph::NodeId last, const EnvFn& env_of)>;

namespace detail {

/// A range's programs of type T in one `std::vector<T>`.
template <typename T>
class TypedProgramBlock final : public ProgramBlock {
 public:
  template <typename Make>
  TypedProgramBlock(graph::NodeId first, graph::NodeId last,
                    const EnvFn& env_of, const Make& make) {
    programs_.reserve(last - first);
    for (graph::NodeId v = first; v < last; ++v) {
      programs_.push_back(make(env_of(v)));
    }
    bind(programs_.data(), sizeof(T), programs_.size());
  }

 private:
  std::vector<T> programs_;
};

}  // namespace detail

/// The factory whose block holds one `T` per node, `make(env)` for each
/// node in ascending order, moved into the block (the moved-from `T` is
/// destroyed right away). `make` maps `const NodeEnv&` to a `T`; it is the
/// per-node constructor, so it must be pure per node (see
/// `ProgramFactory`).
template <typename T, typename Make>
ProgramFactory programs(Make make) {
  static_assert(std::is_base_of_v<NodeProgram, T>,
                "programs<T>: T must derive from NodeProgram");
  static_assert(std::is_invocable_r_v<T, const Make&, const NodeEnv&>,
                "programs<T>: make must map const NodeEnv& to a T");
  return [make = std::move(make)](graph::NodeId first, graph::NodeId last,
                                  const EnvFn& env_of)
             -> std::unique_ptr<ProgramBlock> {
    return std::make_unique<detail::TypedProgramBlock<T>>(first, last, env_of,
                                                          make);
  };
}

}  // namespace ds::local
