#include "ruling/ruling_program.hpp"

#include <algorithm>
#include <memory>

#include "support/check.hpp"

namespace ds::ruling {

namespace {

/// Per-node bit-competition program. Messages carry only candidacy (the
/// neighbor UIDs — and hence their bits — are already in the environment);
/// an empty inbox slot means the neighbor dropped out or halted.
class RulingProgram final : public local::NodeProgram {
 public:
  RulingProgram(const local::NodeEnv& env, std::size_t bits)
      : env_(env), bits_(bits) {
    // B == 0 only when the largest UID is 0 (a single node): it rules.
    if (bits_ == 0) {
      in_set_ = true;
      done_ = true;
    }
  }

  void send(std::size_t /*round*/, local::Outbox& out) override {
    out.broadcast({1ull});  // still a candidate
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    const std::size_t bit = bits_ - 1 - round;
    if (((env_.uid >> bit) & 1ull) != 0) {
      for (std::size_t p = 0; p < inbox.size(); ++p) {
        if (inbox[p].empty()) continue;  // dropped/halted neighbor
        if (((env_.neighbor_uid(p) >> bit) & 1ull) == 0) {
          done_ = true;  // lost bit `bit` to a 0-bit candidate neighbor
          return;
        }
      }
    }
    if (round + 1 >= bits_) {
      in_set_ = true;  // survived every bit
      done_ = true;
    }
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool in_set() const { return in_set_; }

 private:
  local::NodeEnv env_;
  std::size_t bits_;
  bool in_set_ = false;
  bool done_ = false;
};

}  // namespace

RulingProgramOutcome ruling_set_program(const graph::Graph& g,
                                        std::uint64_t seed,
                                        local::IdStrategy ids,
                                        local::CostMeter* meter,
                                        const local::ExecutorFactory& executor) {
  RulingProgramOutcome outcome;
  outcome.result.alpha = 2;
  outcome.result.beta = 1;
  if (g.num_nodes() == 0) return outcome;
  // Every IdStrategy assigns a permutation of [0, n), so the largest UID
  // is n - 1 and B is its bit width — the same on every rank, before any
  // run assigns the UIDs.
  const std::uint64_t max_uid = g.num_nodes() - 1;
  std::size_t bits = 0;
  while (bits < 64 && (max_uid >> bits) != 0) ++bits;
  outcome.result.beta = std::max<std::size_t>(1, bits);
  outcome.result.in_set.assign(g.num_nodes(), false);

  const auto net = local::make_executor(executor, g);
  net->set_output_fn([](graph::NodeId, const local::NodeProgram& p,
                        std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const RulingProgram&>(p).in_set() ? 1 : 0);
  });
  outcome.executed_rounds = net->run(
      [bits](const local::NodeEnv& env) {
        return std::make_unique<RulingProgram>(env, bits);
      },
      ids, seed, bits + 1, meter);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    outcome.result.in_set[v] = net->outputs().value(v) != 0;
  }
  DS_CHECK_MSG(is_ruling_set(g, outcome.result.in_set, outcome.result.alpha,
                             outcome.result.beta),
               "ruling set program failed verification");
  return outcome;
}

}  // namespace ds::ruling
