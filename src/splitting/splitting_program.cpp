#include "splitting/splitting_program.hpp"

#include <cmath>

#include "support/check.hpp"

namespace ds::splitting {

namespace {

/// Per-node program on the unified graph: vertices [0, nu) are left
/// (constraint) nodes, [nu, nu+nv) right (variable) nodes. Even rounds:
/// right nodes announce their color if it changed (round 0: always); odd
/// rounds: unsatisfied constrained left nodes broadcast a complaint. All
/// nodes halt together at the fixed budget.
class SplitProgram final : public local::NodeProgram {
 public:
  SplitProgram(const local::NodeEnv& env, std::size_t nu,
               std::size_t min_degree, std::size_t budget)
      : rng_(env.rng),
        degree_(env.degree),
        right_(env.node >= nu),
        constrained_(!right_ && env.degree >= min_degree),
        budget_(budget),
        neighbor_colors_(right_ ? 0 : env.degree, Color::kUncolored) {
    if (right_) color_ = flip();
  }

  void send(std::size_t round, local::Outbox& out) override {
    if (round % 2 == 0) {
      if (right_ && (round == 0 || changed_)) {
        out.broadcast({static_cast<std::uint64_t>(color_)});
        changed_ = false;
      }
    } else if (constrained_ && unsatisfied()) {
      out.broadcast({1ull});
    }
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    if (round % 2 == 0) {
      if (!right_) {
        // Update the cached neighborhood colors (silence = unchanged).
        for (std::size_t p = 0; p < inbox.size(); ++p) {
          const local::MessageView msg = inbox[p];
          if (!msg.empty()) {
            neighbor_colors_[p] = static_cast<Color>(msg[0]);
          }
        }
      }
    } else if (right_) {
      // Any complaint re-flips this variable (a fresh fair coin, so the
      // complaining constraint sees an independent resample next check).
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        if (!inbox[p].empty()) {
          color_ = flip();
          changed_ = true;
          break;
        }
      }
    }
    if (round + 1 >= budget_) halted_ = true;
  }

  [[nodiscard]] bool done() const override {
    return halted_ || degree_ == 0;
  }
  [[nodiscard]] bool right() const { return right_; }
  [[nodiscard]] Color color() const { return color_; }
  [[nodiscard]] bool satisfied() const {
    return !constrained_ || !unsatisfied();
  }

 private:
  [[nodiscard]] Color flip() {
    return rng_.next_bool() ? Color::kRed : Color::kBlue;
  }
  [[nodiscard]] bool unsatisfied() const {
    bool red = false;
    bool blue = false;
    for (const Color c : neighbor_colors_) {
      red = red || c == Color::kRed;
      blue = blue || c == Color::kBlue;
    }
    return !(red && blue);
  }

  Rng rng_;
  std::size_t degree_;
  bool right_;
  bool constrained_;
  std::size_t budget_;
  std::vector<Color> neighbor_colors_;  ///< left nodes: last seen, by port
  Color color_ = Color::kUncolored;
  bool changed_ = false;
  bool halted_ = false;
};

}  // namespace

SplitProgramOutcome weak_splitting_program(const graph::BipartiteGraph& b,
                                           std::uint64_t seed,
                                           std::size_t min_degree,
                                           local::CostMeter* meter,
                                           std::size_t max_trials,
                                           const local::ExecutorFactory& executor) {
  const graph::Graph& g = b.unified();
  const std::size_t nu = b.num_left();
  const std::size_t budget =
      4 * static_cast<std::size_t>(std::ceil(
              std::log2(static_cast<double>(g.num_nodes()) + 2.0))) +
      16;
  SplitProgramOutcome outcome;
  outcome.colors.assign(b.num_right(), Color::kUncolored);
  // One executor for every Las Vegas trial: trial t redraws the coins with
  // seed + t on the same network.
  const auto net = local::make_executor(executor, g);
  const local::OutputFn split_output = [](graph::NodeId,
                                          const local::NodeProgram& p,
                                          std::vector<std::uint64_t>& out) {
    const auto& prog = static_cast<const SplitProgram&>(p);
    out.push_back(prog.right() ? static_cast<std::uint64_t>(prog.color())
                               : (prog.satisfied() ? 1 : 0));
  };
  for (std::size_t trial = 0; trial < max_trials; ++trial) {
    const local::RunResult run = net->run(
        local::programs<SplitProgram>(
            [nu, min_degree, budget](const local::NodeEnv& env) {
              return SplitProgram(env, nu, min_degree, budget);
            }),
        split_output, local::IdStrategy::kSequential, seed + trial,
        budget + 2, meter);
    outcome.executed_rounds += run.rounds;
    outcome.trials = trial + 1;
    for (graph::RightId v = 0; v < b.num_right(); ++v) {
      outcome.colors[v] =
          static_cast<Color>(run.outputs.value(b.unified_right(v)));
    }
    if (is_weak_splitting(b, outcome.colors, min_degree)) return outcome;
  }
  DS_CHECK_MSG(false,
               "weak_splitting_program: all Las Vegas trials failed (left "
               "degrees too small for the round budget?)");
  return outcome;  // unreachable
}

}  // namespace ds::splitting
