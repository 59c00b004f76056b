#include "local/ids.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace ds::local {

std::vector<std::uint64_t> assign_ids(const graph::Graph& g,
                                      IdStrategy strategy, Rng& rng) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint64_t> ids(n);
  switch (strategy) {
    case IdStrategy::kSequential:
      std::iota(ids.begin(), ids.end(), 0);
      break;
    case IdStrategy::kRandomPermutation: {
      const auto perm = rng.permutation(n);
      for (std::size_t v = 0; v < n; ++v) ids[v] = perm[v];
      break;
    }
    case IdStrategy::kDegreeDescending: {
      // Rank nodes by (degree desc, random tiebreak); rank becomes the id's
      // complement so that high-degree nodes receive high ids.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      const auto tie = rng.permutation(n);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const auto da = g.degree(static_cast<graph::NodeId>(a));
                  const auto db = g.degree(static_cast<graph::NodeId>(b));
                  if (da != db) return da > db;
                  return tie[a] < tie[b];
                });
      for (std::size_t rank = 0; rank < n; ++rank) {
        ids[order[rank]] = n - 1 - rank;
      }
      break;
    }
  }
  return ids;
}

IdStrategy id_strategy_from_name(const std::string& name) {
  if (name == "sequential") return IdStrategy::kSequential;
  if (name == "random") return IdStrategy::kRandomPermutation;
  if (name == "degree") return IdStrategy::kDegreeDescending;
  DS_CHECK_MSG(false,
               "unknown id strategy '" + name +
                   "' (expected sequential, random or degree)");
  return IdStrategy::kSequential;  // unreachable
}

}  // namespace ds::local
