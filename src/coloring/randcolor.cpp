#include "coloring/randcolor.hpp"

#include <algorithm>
#include <memory>

#include "coloring/verify.hpp"
#include "local/network.hpp"
#include "support/check.hpp"

namespace ds::coloring {

namespace {

constexpr std::uint64_t kNoPick = UINT64_MAX;

/// Trial-coloring program. Round = one trial:
///  * send: uncolored nodes draw a random color from their available
///    palette and broadcast (pick, uid); freshly fixed nodes broadcast
///    their final color once more with a "final" flag, then halt.
///  * receive: a node keeps its pick unless some neighbor picked the same
///    color and wins the (uid) tie; final colors are removed from the
///    palette.
class TrialProgram final : public local::NodeProgram {
 public:
  explicit TrialProgram(const local::NodeEnv& env)
      : env_(env), available_(env.degree + 2, true) {}

  void send(std::size_t /*round*/, local::Outbox& out) override {
    if (fixed_) {
      // One farewell broadcast of the final color, then halt.
      out.broadcast({1ull, color_, env_.uid});
      announced_final_ = true;
      return;
    }
    pick_ = draw();
    out.broadcast({0ull, pick_, env_.uid});
  }

  void receive(std::size_t /*round*/, const local::Inbox& inbox) override {
    if (fixed_) return;  // waiting out the farewell round
    bool keep = true;
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const local::MessageView msg = inbox[p];
      if (msg.empty()) continue;
      const bool neighbor_final = msg[0] == 1;
      const std::uint64_t color = msg[1];
      if (neighbor_final) {
        if (color < available_.size()) available_[color] = false;
        if (color == pick_) keep = false;
      } else if (color == pick_ && msg[2] > env_.uid) {
        keep = false;  // conflict lost to a higher UID
      }
    }
    if (keep && pick_ != kNoPick) {
      fixed_ = true;
      color_ = pick_;
    }
  }

  [[nodiscard]] bool done() const override {
    return fixed_ && announced_final_;
  }
  [[nodiscard]] std::uint32_t color() const {
    return static_cast<std::uint32_t>(color_);
  }

 private:
  std::uint64_t draw() {
    // Uniform over available palette entries [0, degree+1): the k-th
    // available color, for one uniform k. Counting and walking allocate
    // nothing, unlike materializing the options every round.
    std::size_t count = 0;
    for (std::uint64_t c = 0; c <= env_.degree; ++c) {
      if (available_[c]) ++count;
    }
    DS_CHECK_MSG(count > 0, "palette exhausted (impossible at Δ+1)");
    std::size_t k = env_.rng.next_index(count);
    for (std::uint64_t c = 0;; ++c) {
      if (available_[c] && k-- == 0) return c;
    }
  }

  local::NodeEnv env_;
  std::vector<bool> available_;
  std::uint64_t pick_ = kNoPick;
  std::uint64_t color_ = 0;
  bool fixed_ = false;
  bool announced_final_ = false;
};

}  // namespace

RandColorOutcome randomized_coloring(const graph::Graph& g,
                                     std::uint64_t seed,
                                     local::CostMeter* meter,
                                     std::size_t max_rounds,
                                     local::IdStrategy ids,
                                     const local::ExecutorFactory& executor) {
  const auto net = local::make_executor(executor, g, ids, seed);
  // Results come back through the executor's output gather (the only
  // channel that works on every executor, TCP ranks included).
  net->set_output_fn([](graph::NodeId, const local::NodeProgram& p,
                        std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const TrialProgram&>(p).color());
  });
  const std::size_t rounds = net->run(
      [](const local::NodeEnv& env) {
        return std::make_unique<TrialProgram>(env);
      },
      max_rounds, meter);

  RandColorOutcome outcome;
  outcome.executed_rounds = rounds;
  outcome.colors.resize(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    outcome.colors[v] = static_cast<std::uint32_t>(net->outputs().value(v));
    outcome.num_colors = std::max(outcome.num_colors, outcome.colors[v] + 1);
  }
  DS_CHECK_MSG(is_proper_coloring(g, outcome.colors),
               "trial coloring produced an improper coloring");
  return outcome;
}

}  // namespace ds::coloring
