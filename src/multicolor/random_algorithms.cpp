#include "multicolor/random_algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "coloring/distance_coloring.hpp"
#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "local/ids.hpp"
#include "support/check.hpp"

namespace ds::multicolor {

namespace {

/// Shared scheduling step: order the right nodes by a proper B²-coloring
/// class (the [GHK17a, Prop 3.2] compilation of the SLOCAL(2)
/// derandomization) and charge the O(C·2) rounds.
std::vector<std::uint32_t> schedule_by_b2(const graph::BipartiteGraph& b,
                                          Rng& rng, local::CostMeter* meter,
                                          std::uint32_t* num_schedule_colors) {
  const graph::Graph& unified = b.unified();
  Rng id_rng = rng.fork(0x5C4EDull);
  const auto ids =
      local::assign_ids(unified, local::IdStrategy::kSequential, id_rng);
  const coloring::PowerColoring schedule =
      coloring::color_power(unified, 2, ids, meter);
  if (meter != nullptr) {
    meter->charge("slocal-compile", 2.0 * schedule.num_colors);
  }
  std::vector<std::uint32_t> order(b.num_right());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return schedule.colors[b.unified_right(x)] <
                            schedule.colors[b.unified_right(y)];
                   });
  if (num_schedule_colors != nullptr) {
    *num_schedule_colors = schedule.num_colors;
  }
  return order;
}

ColorAssignment to_assignment(const std::vector<int>& raw) {
  ColorAssignment colors(raw.size());
  for (std::size_t v = 0; v < raw.size(); ++v) {
    DS_CHECK(raw[v] >= 0);
    colors[v] = static_cast<std::uint32_t>(raw[v]);
  }
  return colors;
}

}  // namespace

ColorAssignment random_uniform_colors(const graph::BipartiteGraph& b,
                                      std::uint32_t num_colors, Rng& rng) {
  DS_CHECK(num_colors >= 1);
  ColorAssignment colors(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    colors[v] = static_cast<std::uint32_t>(rng.next_u64(num_colors));
  }
  return colors;
}

ColorAssignment derand_weak_multicolor(const graph::BipartiteGraph& b,
                                       std::uint32_t num_colors, Rng& rng,
                                       local::CostMeter* meter,
                                       MulticolorDerandInfo* info) {
  MulticolorDerandInfo local_info;
  const auto order =
      schedule_by_b2(b, rng, meter, &local_info.schedule_colors);
  const derand::Problem problem =
      derand::missing_color_problem(b, static_cast<int>(num_colors));
  const derand::Result result = derand::derandomize(problem, order);
  local_info.initial_potential = result.initial_potential;
  local_info.final_potential = result.final_potential;
  if (info != nullptr) *info = local_info;
  return to_assignment(result.assignment);
}

std::uint32_t cl_palette(std::uint32_t C, double lambda) {
  DS_CHECK(C >= 2);
  DS_CHECK(lambda > 0.0);
  if (C == 2) return 2;
  const std::uint32_t prime =
      lambda >= 2.0 / 3.0
          ? 3
          : static_cast<std::uint32_t>(std::ceil(3.0 / lambda));
  return std::min(C, prime);
}

ColorAssignment derand_cl_multicolor(const graph::BipartiteGraph& b,
                                     std::uint32_t C, double lambda, Rng& rng,
                                     local::CostMeter* meter,
                                     MulticolorDerandInfo* info) {
  const std::uint32_t palette = cl_palette(C, lambda);
  MulticolorDerandInfo local_info;
  const auto order =
      schedule_by_b2(b, rng, meter, &local_info.schedule_colors);
  const derand::Problem problem =
      derand::overload_problem(b, static_cast<int>(palette), lambda);
  const derand::Result result = derand::derandomize(problem, order);
  local_info.initial_potential = result.initial_potential;
  local_info.final_potential = result.final_potential;
  if (info != nullptr) *info = local_info;
  return to_assignment(result.assignment);
}

}  // namespace ds::multicolor
