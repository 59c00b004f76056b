#include "netdecomp/decomposition_program.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "support/check.hpp"

namespace ds::netdecomp {

namespace {

constexpr std::uint64_t kUnclustered = UINT64_MAX;

/// A center's (UID, slack), ordered by UID.
using Entry = std::pair<std::uint64_t, std::uint64_t>;
bool by_uid(const Entry& a, const Entry& b) { return a.first < b.first; }

/// Per-node Linial–Saks program. Block b occupies rounds
/// [b·radius_cap, (b+1)·radius_cap); within a block, step 0 seeds the
/// node's own announcement and later steps flood first arrivals. The
/// decision happens at the last receive of the block. Its vectors keep
/// their capacity across rounds and blocks.
class LinialSaksProgram final : public local::NodeProgram {
 public:
  LinialSaksProgram(const local::NodeEnv& env, std::size_t radius_cap)
      : uid_(env.uid), rng_(env.rng), radius_cap_(radius_cap) {}

  void send(std::size_t round, local::Outbox& out) override {
    if (round % radius_cap_ == 0) {
      // New block: draw this block's geometric radius and seed the
      // knowledge with the self announcement (slack = radius).
      known_.clear();
      std::size_t radius = 0;
      while (radius < radius_cap_ && rng_.next_bool()) ++radius;
      known_.emplace_back(uid_, static_cast<std::uint64_t>(radius));
      if (radius >= 1) {
        out.broadcast({uid_, static_cast<std::uint64_t>(radius - 1)});
      }
      return;
    }
    if (!words_.empty()) out.broadcast(words_);
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    // Collect this round's first arrivals, then forward next round only
    // those with hops to spare that no higher-UID center with at least the
    // same slack dominates (the dominator covers every node the dominated
    // one could).
    arrivals_.clear();
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const local::MessageView msg = inbox[p];
      DS_CHECK(msg.size() % 2 == 0);
      for (std::size_t i = 0; i < msg.size(); i += 2) {
        const Entry arrival{msg[i], msg[i + 1]};
        const auto at =
            std::lower_bound(known_.begin(), known_.end(), arrival, by_uid);
        // A slower copy, or a same-round one (those carry one slack).
        if (at != known_.end() && at->first == arrival.first) continue;
        known_.insert(at, arrival);
        arrivals_.push_back(arrival);
      }
    }
    std::sort(arrivals_.begin(), arrivals_.end());
    // Highest UID first (any fixed order works; this one is stable).
    words_.clear();
    for (auto it = arrivals_.rbegin(); it != arrivals_.rend(); ++it) {
      const auto [uid, slack] = *it;
      const auto higher =
          std::upper_bound(known_.begin(), known_.end(), Entry{uid, 0}, by_uid);
      const bool dominated =
          std::any_of(higher, known_.end(),
                      [&](const Entry& kv) { return kv.second >= slack; });
      if (!dominated && slack >= 1) {
        words_.push_back(uid);
        words_.push_back(slack - 1);
      }
    }
    if (round % radius_cap_ + 1 < radius_cap_) return;
    // Last step of the block: join the highest-UID covering center if
    // strictly inside its ball, else stay active for the next block.
    const Entry& best = known_.back();
    if (best.second > 0) {
      block_ = round / radius_cap_;
      center_ = best.first;
      clustered_ = true;
    }
  }

  [[nodiscard]] bool done() const override { return clustered_; }
  [[nodiscard]] std::uint64_t block() const { return block_; }
  [[nodiscard]] std::uint64_t center() const {
    return clustered_ ? center_ : kUnclustered;
  }

 private:
  std::uint64_t uid_;
  Rng rng_;
  std::size_t radius_cap_;
  /// First-arrival slack per center, this block, sorted by UID.
  std::vector<Entry> known_;
  /// This receive's first arrivals, sorted by UID.
  std::vector<Entry> arrivals_;
  /// What the next send forwards: (UID, slack - 1) per arrival.
  std::vector<std::uint64_t> words_;
  std::uint64_t block_ = 0;
  std::uint64_t center_ = 0;
  bool clustered_ = false;
};

}  // namespace

DecompProgramOutcome decomposition_program(const graph::Graph& g,
                                           std::uint64_t seed,
                                           std::size_t radius_cap,
                                           local::IdStrategy ids,
                                           local::CostMeter* meter,
                                           const local::ExecutorFactory& executor) {
  const std::size_t n = g.num_nodes();
  DecompProgramOutcome outcome;
  if (radius_cap == 0) {
    radius_cap = 2 * static_cast<std::size_t>(std::ceil(
                         std::log2(static_cast<double>(n) + 1))) +
                 4;
  }
  outcome.radius_cap = radius_cap;
  Decomposition& decomp = outcome.decomposition;
  decomp.cluster.assign(n, UINT32_MAX);
  if (n == 0) return outcome;
  const std::size_t max_blocks = 4 * radius_cap + 8;

  const local::RunResult run = local::make_executor(executor, g)->run(
      local::programs<LinialSaksProgram>(
          [radius_cap](const local::NodeEnv& env) {
            return LinialSaksProgram(env, radius_cap);
          }),
      [](graph::NodeId, const local::NodeProgram& p,
         std::vector<std::uint64_t>& out) {
        const auto& prog = static_cast<const LinialSaksProgram&>(p);
        out.push_back(prog.block());
        out.push_back(prog.center());
      },
      ids, seed, max_blocks * radius_cap, meter);
  outcome.executed_rounds = run.rounds;

  // Densify cluster ids from the gathered (block, center UID) pairs in
  // node order — deterministic, and a center keys at most one cluster per
  // block (it halts once clustered itself).
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> dense;
  for (graph::NodeId v = 0; v < n; ++v) {
    const local::MessageView row = run.outputs.row(v);
    DS_CHECK(row.size() == 2);
    DS_CHECK_MSG(row[1] != kUnclustered, "unclustered node after the run");
    const auto key = std::make_pair(row[0], row[1]);
    auto it = dense.find(key);
    if (it == dense.end()) {
      it = dense.emplace(key, static_cast<std::uint32_t>(decomp.num_clusters))
               .first;
      decomp.block.push_back(static_cast<std::uint32_t>(row[0]));
      ++decomp.num_clusters;
      decomp.num_blocks = std::max(decomp.num_blocks,
                                   static_cast<std::size_t>(row[0]) + 1);
    }
    decomp.cluster[v] = it->second;
  }
  decomp.max_weak_diameter = weak_diameter(g, decomp);
  // True weak diameter is <= 2·radius_cap; the measurement doubles an
  // eccentricity for large clusters, hence the 2x verification slack.
  DS_CHECK_MSG(
      is_network_decomposition(g, decomp, 4 * radius_cap, decomp.num_blocks),
      "Linial-Saks program produced an invalid decomposition");
  return outcome;
}

}  // namespace ds::netdecomp
