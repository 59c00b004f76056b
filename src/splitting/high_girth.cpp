#include "splitting/high_girth.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "coloring/distance_coloring.hpp"
#include "graph/properties.hpp"
#include "local/ids.hpp"
#include "splitting/delta6r.hpp"
#include "support/check.hpp"

namespace ds::splitting {

namespace {

/// Choice encoding for the 3-valued shattering variables.
constexpr int kChoiceRed = 0;
constexpr int kChoiceBlue = 1;
constexpr int kChoiceUncolored = 2;

/// The adjacency data the estimator closures need.
struct ShatterAdj {
  /// The instance (a copy shares its image).
  graph::BipartiteGraph b;
  /// left u -> (shared right node w, constraint u' at distance 2 via w).
  /// With girth >= 10 each u' appears with exactly one w; the estimator for
  /// the event conditioned on "v uncolored" must SKIP pairs with w == v:
  /// such a u' can only influence u by uncoloring v, which is a no-op when
  /// v is already uncolored — this is precisely the independence argument
  /// of Lemma 5.1, and keeping those terms would also correlate the product
  /// factors of two constraints through v.
  std::vector<std::vector<std::pair<graph::RightId, graph::LeftId>>>
      left_two_hop;
};

std::shared_ptr<ShatterAdj> make_adj(const graph::BipartiteGraph& b) {
  auto adj = std::make_shared<ShatterAdj>();
  adj->b = b;
  adj->left_two_hop.resize(b.num_left());
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    for (graph::RightId v : b.left_neighbors(u)) {
      for (graph::LeftId w : b.right_neighbors(v)) {
        if (w != u) adj->left_two_hop[u].emplace_back(v, w);
      }
    }
  }
  return adj;
}

/// Counts of one constraint's neighborhood under a partial assignment, with
/// one designated right node treated as uncolored (the conditioning of
/// Lemma 5.1).
struct NbrCounts {
  std::size_t fixed_red = 0;
  std::size_t fixed_blue = 0;
  std::size_t fixed_uncolored = 0;
  std::size_t unset = 0;
  [[nodiscard]] std::size_t degree() const {
    return fixed_red + fixed_blue + fixed_uncolored + unset;
  }
  [[nodiscard]] std::size_t fixed_colored() const {
    return fixed_red + fixed_blue;
  }
};

NbrCounts count_neighbors(const ShatterAdj& adj, graph::LeftId u,
                          const std::vector<int>& a,
                          graph::RightId conditioned_uncolored) {
  NbrCounts c;
  for (graph::NodeId x : adj.b.unified().neighbors(u)) {
    const auto v = static_cast<graph::RightId>(x - adj.b.num_left());
    int value = a[v];
    if (v == conditioned_uncolored) value = kChoiceUncolored;
    switch (value) {
      case kChoiceRed:
        ++c.fixed_red;
        break;
      case kChoiceBlue:
        ++c.fixed_blue;
        break;
      case kChoiceUncolored:
        ++c.fixed_uncolored;
        break;
      default:
        ++c.unset;
        break;
    }
  }
  return c;
}

/// estA1: Pr[colored count < d/4]. Each unset neighbor is colored w.p. 1/2.
/// MGF lower tail with tilt s: e^{s·d/4}·e^{-s·colored}·(1/2 + e^{-s}/2)^unset.
double est_a1(const NbrCounts& c, double s) {
  const double d = static_cast<double>(c.degree());
  return std::exp(s * (d / 4.0 - static_cast<double>(c.fixed_colored()))) *
         std::pow(0.5 + 0.5 * std::exp(-s), static_cast<double>(c.unset));
}

/// estA2: Pr[colored count > 3d/4], MGF upper tail.
double est_a2(const NbrCounts& c, double s) {
  const double d = static_cast<double>(c.degree());
  return std::exp(s * (static_cast<double>(c.fixed_colored()) - 3.0 * d / 4.0)) *
         std::pow(0.5 + 0.5 * std::exp(s), static_cast<double>(c.unset));
}

/// estA3': Pr[no red among colored] + Pr[no blue among colored]; each unset
/// neighbor avoids a specific color w.p. 3/4; exact product form.
double est_a3(const NbrCounts& c) {
  const double avoid = std::pow(0.75, static_cast<double>(c.unset));
  double est = 0.0;
  if (c.fixed_red == 0) est += avoid;
  if (c.fixed_blue == 0) est += avoid;
  return est;
}

/// A1 + A2 + A3' + Σ_{u' two hops} (A1(u') + A2(u')): pessimistic estimator
/// of Pr[u unsatisfied after the uncoloring phase | partial]. Note: the
/// value may exceed 1 at practical instance sizes (the theorem's constants
/// demand astronomically large n); it is deliberately *not* clamped to 1 —
/// clamping would flatten the greedy's gradient exactly where the bound is
/// loose, while the unclamped sum remains a valid supermartingale.
double est_unsatisfied(const ShatterAdj& adj, graph::LeftId u,
                       const std::vector<int>& a,
                       graph::RightId conditioned_uncolored, double tail_s) {
  const NbrCounts cu = count_neighbors(adj, u, a, conditioned_uncolored);
  double est = est_a1(cu, tail_s) + est_a2(cu, tail_s) + est_a3(cu);
  for (const auto& [via, w] : adj.left_two_hop[u]) {
    // u' reachable only through the conditioned-uncolored node cannot hurt
    // u (uncoloring v again is a no-op) — see ShatterAdj::left_two_hop.
    if (via == conditioned_uncolored) continue;
    const NbrCounts cw = count_neighbors(adj, w, a, conditioned_uncolored);
    est += est_a1(cw, tail_s) + est_a2(cw, tail_s);
  }
  return est;
}

/// Applies the deterministic uncoloring phase + satisfaction check to a
/// finished 3-valued assignment.
ShatterOutcome finish_shattering(const graph::BipartiteGraph& b,
                                 const std::vector<int>& assignment) {
  ShatterOutcome out;
  out.partial.assign(b.num_right(), Color::kUncolored);
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (assignment[v] == kChoiceRed) out.partial[v] = Color::kRed;
    if (assignment[v] == kChoiceBlue) out.partial[v] = Color::kBlue;
  }
  std::vector<bool> uncolor(b.num_right(), false);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const graph::EdgeIdView edges = b.left_edges(u);
    std::size_t colored = 0;
    for (graph::EdgeId e : edges) {
      if (out.partial[b.endpoints(e).second] != Color::kUncolored) ++colored;
    }
    if (4 * colored > 3 * edges.size()) {
      for (graph::EdgeId e : edges) uncolor[b.endpoints(e).second] = true;
    }
  }
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (uncolor[v]) out.partial[v] = Color::kUncolored;
  }
  out.unsatisfied.assign(b.num_left(), false);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    bool red = false;
    bool blue = false;
    for (graph::EdgeId e : b.left_edges(u)) {
      const Color c = out.partial[b.endpoints(e).second];
      red = red || (c == Color::kRed);
      blue = blue || (c == Color::kBlue);
    }
    out.unsatisfied[u] = !(red && blue);
  }
  return out;
}

/// Shared residual-solving tail of both Section 5 algorithms: build H from
/// the shattering outcome, solve components with Theorem 2.7 when
/// δ_H >= 6·r_H holds there (the Lemma 5.1 guarantee), fall back to the
/// robust solver otherwise, and merge.
Coloring solve_residual(const graph::BipartiteGraph& b,
                        const ShatterOutcome& outcome, Rng& rng,
                        local::CostMeter* meter, HighGirthInfo* info) {
  std::vector<bool> keep(b.num_edges(), false);
  for (graph::EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    keep[e] = outcome.unsatisfied[u] &&
              outcome.partial[v] == Color::kUncolored;
  }
  const graph::BipartiteGraph residual = b.filter_edges(keep).first;
  auto components = graph::connected_components(residual);

  Coloring colors = outcome.partial;
  local::CostMeter component_meter;
  for (const auto& comp : components) {
    if (info != nullptr) {
      info->num_components = components.size();
      info->largest_component =
          std::max(info->largest_component, comp.graph.num_nodes());
      info->residual_rank = std::max(info->residual_rank, comp.graph.rank());
      if (info->residual_min_degree == 0) {
        info->residual_min_degree = comp.graph.min_left_degree();
      } else {
        info->residual_min_degree =
            std::min(info->residual_min_degree, comp.graph.min_left_degree());
      }
    }
    local::CostMeter one;
    Coloring comp_colors;
    if (comp.graph.min_left_degree() >= 6 * comp.graph.rank() &&
        comp.graph.min_left_degree() >= 2) {
      comp_colors = delta6r_split(comp.graph, /*randomized=*/false, rng, &one);
    } else {
      if (info != nullptr) info->residual_delta_6r = false;
      comp_colors = robust_component_solve(comp.graph, rng);
    }
    component_meter.merge_parallel_max(one);
    for (graph::RightId cv = 0; cv < comp.graph.num_right(); ++cv) {
      colors[comp.right_to_parent[cv]] = comp_colors[cv];
    }
  }
  if (meter != nullptr) meter->merge_sequential(component_meter);
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (colors[v] == Color::kUncolored) colors[v] = Color::kRed;
  }
  return colors;
}

}  // namespace

derand::Problem high_girth_shatter_problem(const graph::BipartiteGraph& b,
                                           const HighGirthConfig& config) {
  derand::Problem p;
  p.num_variables = b.num_right();
  p.num_constraints = b.num_right();
  p.num_choices = 3;
  auto adj = make_adj(b);
  const double threshold = std::max(
      1.0, config.threshold_frac * static_cast<double>(b.min_left_degree()));
  const double outer_s = config.outer_s;
  const double tail_s = config.tail_s;

  // var_constraints: a variable affects the estimators of right nodes within
  // distance 4 (itself, plus constraints reading its color through their
  // A1/A2/A3/A4 pieces).
  const graph::Graph& unified = b.unified();
  p.var_constraints.resize(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    std::set<graph::RightId> affected;
    affected.insert(v);
    for (graph::NodeId w : graph::ball(unified, b.unified_right(v), 4)) {
      if (w >= b.num_left()) {
        affected.insert(static_cast<graph::RightId>(w - b.num_left()));
      }
    }
    p.var_constraints[v].assign(affected.begin(), affected.end());
  }

  p.phi = [adj, threshold, outer_s, tail_s](
              std::uint32_t j, const std::vector<int>& a) -> double {
    const graph::RightId v = j;
    // Pr[v uncolored]: 0 if fixed colored, 1 if fixed uncolored, 1/2 unset.
    double p_unc = 0.5;
    if (a[v] == kChoiceRed || a[v] == kChoiceBlue) return 0.0;
    if (a[v] == kChoiceUncolored) p_unc = 1.0;
    // MGF combination over v's (girth-independent) constraint neighbors:
    // Pr[X_v >= threshold] <= e^{-s·threshold}·Π_u (1 + (e^s − 1)·p_u).
    const double es = std::exp(outer_s);
    double product = 1.0;
    for (graph::LeftId u : adj->b.right_neighbors(v)) {
      const double pu = est_unsatisfied(*adj, u, a, v, tail_s);
      product *= 1.0 + (es - 1.0) * pu;
    }
    return p_unc * std::exp(-outer_s * threshold) * product;
  };
  return p;
}

Coloring high_girth_det_split(const graph::BipartiteGraph& b, Rng& rng,
                              local::CostMeter* meter, HighGirthInfo* info,
                              const HighGirthConfig& config) {
  DS_CHECK_MSG(b.min_left_degree() >= 5,
               "need min left degree >= 5 so unsatisfied nodes keep >= 2 "
               "uncolored neighbors");
  const graph::Graph& unified = b.unified();
  if (config.check_girth) {
    DS_CHECK_MSG(graph::girth(unified) >= 10,
                 "high_girth_det_split requires girth >= 10");
  }
  HighGirthInfo local_info;

  // Schedule: proper coloring of B⁴ with O(Δ²r²) colors ([GHK17a, Prop 3.2]
  // for the SLOCAL(4) derandomized shattering).
  Rng id_rng = rng.fork(0x41D5ull);
  const auto ids =
      local::assign_ids(unified, local::IdStrategy::kSequential, id_rng);
  const coloring::PowerColoring schedule =
      coloring::color_power(unified, 4, ids, meter);
  if (meter != nullptr) {
    meter->charge("slocal-compile", 4.0 * schedule.num_colors);
  }
  std::vector<std::uint32_t> order(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return schedule.colors[b.unified_right(x)] <
                            schedule.colors[b.unified_right(y)];
                   });
  local_info.schedule_colors = schedule.num_colors;

  const derand::Problem problem = high_girth_shatter_problem(b, config);
  const derand::Result result = derand::derandomize(problem, order);
  local_info.initial_potential = result.initial_potential;

  const ShatterOutcome outcome = finish_shattering(b, result.assignment);
  Coloring colors = solve_residual(b, outcome, rng, meter, &local_info);
  DS_CHECK_MSG(is_weak_splitting(b, colors),
               "high_girth_det_split output failed verification");
  if (info != nullptr) *info = local_info;
  return colors;
}

Coloring high_girth_rand_split(const graph::BipartiteGraph& b, Rng& rng,
                               local::CostMeter* meter, HighGirthInfo* info,
                               const HighGirthConfig& config) {
  DS_CHECK_MSG(b.min_left_degree() >= 5,
               "need min left degree >= 5 so unsatisfied nodes keep >= 2 "
               "uncolored neighbors");
  if (config.check_girth) {
    DS_CHECK_MSG(graph::girth(b.unified()) >= 10,
                 "high_girth_rand_split requires girth >= 10");
  }
  HighGirthInfo local_info;
  const ShatterOutcome outcome = shattering_phase(b, rng, meter);
  Coloring colors = solve_residual(b, outcome, rng, meter, &local_info);
  DS_CHECK_MSG(is_weak_splitting(b, colors),
               "high_girth_rand_split output failed verification");
  if (info != nullptr) *info = local_info;
  return colors;
}

}  // namespace ds::splitting
