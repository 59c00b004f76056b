#pragma once

/// \file ids.hpp
/// Unique-identifier assignment for LOCAL-model executions. Deterministic
/// LOCAL algorithms may depend on IDs; experiments therefore control how IDs
/// relate to the topology (sequential, random, or degree-adversarial).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace ds::local {

/// Strategy for assigning unique IDs to the n nodes of a network.
enum class IdStrategy {
  /// id(v) = v. The friendliest assignment.
  kSequential,
  /// A uniformly random permutation of {0,...,n-1}.
  kRandomPermutation,
  /// Descending by degree with random tie-breaks — stresses the majority-ID
  /// constructions (Section 2.5) differently from sequential ids.
  kDegreeDescending,
};

/// Returns a vector of n distinct IDs (a permutation of {0,...,n-1}).
std::vector<std::uint64_t> assign_ids(const graph::Graph& g,
                                      IdStrategy strategy, Rng& rng);

/// Strategy for "sequential" / "random" / "degree" (the algorithm-registry
/// `ids` parameter values); throws ds::CheckError on anything else.
IdStrategy id_strategy_from_name(const std::string& name);

}  // namespace ds::local
