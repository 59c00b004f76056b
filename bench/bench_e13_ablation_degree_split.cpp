// E13 — Ablation: the degree-splitting substrate.
//
// DESIGN.md's substitution table claims the Euler-based orientation
// (discrepancy <= 1, rounds charged per Theorem 2.3) dominates the
// Theorem 2.3 contract, and that a 0-round random orientation baseline
// (discrepancy Θ(√d)) does NOT suffice for the reductions of Section 2.
// This ablation runs DRR-I with both substrates and reports:
//   * per-iteration max discrepancy of the underlying orientation,
//   * the (δ_k, r_k) trajectory quality — with the random baseline, δ_k
//     can crash through the Lemma 2.4 floor,
//   * end-to-end Theorem 2.5 validity/quality under both substrates.

#include <iostream>

#include "graph/generators.hpp"
#include "graph/multigraph.hpp"
#include "orient/degree_split.hpp"
#include "splitting/degree_rank_reduction.hpp"
#include "splitting/deterministic.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace ds;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  Rng rng(opts.seed());
  bool ok = true;

  std::cout << "E13 — Ablation: Euler vs random-orientation degree "
               "splitting\n";
  {
    Table table({"d", "euler max disc", "random max disc", "contract(0.1)"});
    for (std::size_t d : {8, 32, 128, 512}) {
      Rng gen = rng.fork(d);
      std::vector<graph::Edge> edges(d * d);
      for (graph::Edge& e : edges) {
        // v is drawn before u: the instances this table has always used.
        e.v = static_cast<graph::NodeId>(gen.next_index(2 * d));
        e.u = static_cast<graph::NodeId>(gen.next_index(2 * d));
      }
      const graph::Multigraph m(2 * d, std::move(edges));
      orient::SplitConfig euler;
      euler.eps = 0.1;
      const auto euler_orient = orient::degree_split(m, euler, rng, nullptr);
      orient::SplitConfig random;
      random.eps = 0.1;
      random.method = orient::SplitMethod::kRandomBaseline;
      const auto random_orient = orient::degree_split(m, random, rng, nullptr);
      const std::size_t euler_disc = orient::max_discrepancy(m, euler_orient);
      const std::size_t random_disc = orient::max_discrepancy(m, random_orient);
      const bool euler_contract =
          orient::satisfies_split_contract(m, euler_orient, 0.1);
      ok = ok && euler_contract && euler_disc <= 1;
      table.row()
          .num(d)
          .num(euler_disc)
          .num(random_disc)
          .cell(euler_contract ? "euler: yes" : "euler: NO");
    }
    std::cout << "(a) orientation discrepancy\n";
    table.print(std::cout);
  }
  {
    Table table({"substrate", "k", "delta_k", "Lemma 2.4 floor", "r_k",
                 "floor holds"});
    bool euler_all_hold = true;
    bool random_any_violation = false;
    for (auto method : {orient::SplitMethod::kEuler,
                        orient::SplitMethod::kRandomBaseline}) {
      const auto b = graph::gen::random_biregular(256, 256, 192, rng);
      orient::SplitConfig config;
      config.eps = 0.2;
      config.method = method;
      splitting::DrrTrace trace;
      splitting::degree_rank_reduction(b, 5, config, rng, nullptr, &trace);
      for (std::size_t i = 0; i <= 5; ++i) {
        const double floor =
            splitting::drr1_delta_bound(b.min_left_degree(), config.eps, i);
        const bool holds =
            static_cast<double>(trace.min_left_degree[i]) > floor;
        if (method == orient::SplitMethod::kEuler) {
          euler_all_hold = euler_all_hold && holds;
        } else if (!holds) {
          random_any_violation = true;
        }
        table.row()
            .cell(method == orient::SplitMethod::kEuler ? "euler" : "random")
            .num(i)
            .num(trace.min_left_degree[i])
            .num(floor, 1)
            .num(trace.rank[i])
            .cell(holds ? "yes" : "NO");
      }
    }
    std::cout << "(b) DRR-I trajectories (eps = 0.2, delta = 192)\n";
    table.print(std::cout);
    ok = ok && euler_all_hold;
    std::cout << "random baseline violated the Lemma 2.4 floor: "
              << (random_any_violation ? "yes (expected at some step)"
                                       : "no (got lucky this seed)")
              << "\n";
  }
  {
    // End-to-end: Theorem 2.5 under both substrates.
    Table table({"substrate", "valid", "reduced delta", "reduced r"});
    for (auto method : {orient::SplitMethod::kEuler,
                        orient::SplitMethod::kRandomBaseline}) {
      const auto b = graph::gen::random_biregular(48, 512, 480, rng);
      local::CostMeter meter;
      splitting::DeterministicInfo info;
      bool valid = false;
      try {
        const auto colors = splitting::deterministic_weak_split(
            b, rng, &meter, &info, 0, method);
        valid = splitting::is_weak_splitting(b, colors);
      } catch (const std::exception&) {
        valid = false;  // substrate failure surfaced as an exception
      }
      if (method == orient::SplitMethod::kEuler) ok = ok && valid;
      table.row()
          .cell(method == orient::SplitMethod::kEuler ? "euler" : "random")
          .cell(valid ? "yes" : "NO")
          .num(info.reduced_min_degree)
          .num(info.reduced_rank);
    }
    std::cout << "(c) Theorem 2.5 end-to-end\n";
    table.print(std::cout);
  }
  std::cout << (ok ? "SHAPE CHECK: PASS" : "SHAPE CHECK: FAIL")
            << " (Euler meets contract and sustains the pipeline)\n";
  return ok ? 0 : 1;
}
