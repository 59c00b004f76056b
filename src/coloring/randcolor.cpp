#include "coloring/randcolor.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "coloring/verify.hpp"
#include "local/network.hpp"
#include "support/check.hpp"

namespace ds::coloring {

namespace {

constexpr std::uint32_t kNoPick = UINT32_MAX;

/// Trial-coloring program. Round = one trial:
///  * send: uncolored nodes draw a random color from their available
///    palette and broadcast (pick, uid); freshly fixed nodes broadcast
///    their final color once more with a "final" flag, then halt.
///  * receive: a node keeps its pick unless some neighbor picked the same
///    color and wins the (uid) tie; final colors are removed from the
///    palette.
///
/// The palette is one bit per color of [0, degree + 2): word 0 inline, the
/// further words in one heap array only when degree + 2 > 64, so a program
/// on a bounded-degree graph is one fixed-size object.
class TrialProgram final : public local::NodeProgram {
 public:
  explicit TrialProgram(const local::NodeEnv& env)
      : uid_(env.uid),
        rng_(env.rng),
        degree_(static_cast<std::uint32_t>(env.degree)) {
    const std::size_t words = (env.degree + 2 + 63) / 64;
    if (words > 1) {
      palette_rest_ = std::make_unique<std::uint64_t[]>(words - 1);
      std::fill_n(palette_rest_.get(), words - 1, ~0ull);
    }
  }

  void send(std::size_t /*round*/, local::Outbox& out) override {
    if (fixed_) {
      // One farewell broadcast of the final color, then halt.
      out.broadcast({1ull, color_, uid_});
      announced_final_ = true;
      return;
    }
    pick_ = draw();
    out.broadcast({0ull, pick_, uid_});
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
        if (color < degree_ + 2ull) palette_word(color / 64) &= ~bit(color);
        if (color == pick_) keep = false;
      } else if (color == pick_ && msg[2] > uid_) {
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
  [[nodiscard]] std::uint32_t color() const { return color_; }

 private:
  static std::uint64_t bit(std::uint64_t color) {
    return 1ull << (color % 64);
  }
  std::uint64_t& palette_word(std::size_t i) {
    return i == 0 ? palette_first_ : palette_rest_[i - 1];
  }
  /// Palette word i restricted to the drawable colors [0, degree].
  [[nodiscard]] std::uint64_t drawable(std::size_t i) {
    std::uint64_t bits = palette_word(i);
    const std::uint32_t top = degree_ % 64;
    if (i == degree_ / 64 && top < 63) bits &= (2ull << top) - 1;
    return bits;
  }

  std::uint32_t draw() {
    // Uniform over the available colors of [0, degree]: the k-th one, for
    // one uniform k. Counting and selecting walk the palette words and
    // allocate nothing.
    const std::size_t words = degree_ / 64 + 1;
    std::size_t count = 0;
    for (std::size_t i = 0; i < words; ++i) {
      count += static_cast<std::size_t>(std::popcount(drawable(i)));
    }
    DS_CHECK_MSG(count > 0, "palette exhausted (impossible at Δ+1)");
    std::size_t k = rng_.next_index(count);
    for (std::size_t i = 0;; ++i) {
      std::uint64_t bits = drawable(i);
      const auto in_word = static_cast<std::size_t>(std::popcount(bits));
      if (k >= in_word) {
        k -= in_word;
        continue;
      }
      for (; k > 0; --k) bits &= bits - 1;  // drop the k lowest colors
      return static_cast<std::uint32_t>(64 * i + std::countr_zero(bits));
    }
  }

  std::uint64_t uid_;
  Rng rng_;
  std::uint64_t palette_first_ = ~0ull;
  std::unique_ptr<std::uint64_t[]> palette_rest_;
  std::uint32_t degree_;
  std::uint32_t pick_ = kNoPick;
  std::uint32_t color_ = 0;
  bool fixed_ = false;
  bool announced_final_ = false;
};
static_assert(sizeof(TrialProgram) <= 96);

}  // namespace

RandColorOutcome randomized_coloring(const graph::Graph& g,
                                     std::uint64_t seed,
                                     local::CostMeter* meter,
                                     std::size_t max_rounds,
                                     local::IdStrategy ids,
                                     const local::ExecutorFactory& executor) {
  const local::RunResult run = local::make_executor(executor, g)->run(
      local::programs<TrialProgram>(
          [](const local::NodeEnv& env) { return TrialProgram(env); }),
      [](graph::NodeId, const local::NodeProgram& p,
         std::vector<std::uint64_t>& out) {
        out.push_back(static_cast<const TrialProgram&>(p).color());
      },
      ids, seed, max_rounds, meter);

  RandColorOutcome outcome;
  outcome.executed_rounds = run.rounds;
  outcome.colors.resize(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    outcome.colors[v] = static_cast<std::uint32_t>(run.outputs.value(v));
    outcome.num_colors = std::max(outcome.num_colors, outcome.colors[v] + 1);
  }
  DS_CHECK_MSG(is_proper_coloring(g, outcome.colors),
               "trial coloring produced an improper coloring");
  return outcome;
}

}  // namespace ds::coloring
