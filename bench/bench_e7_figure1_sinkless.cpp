// E7 — Theorem 2.10 / Figure 1: the sinkless-orientation reduction.
//
// Reproduces the paper's single figure as an executable pipeline: build the
// rank-2 bipartite instance B from G by the majority-ID rule, solve weak
// splitting, decode edge colors into an orientation, verify no node is a
// sink. The table sweeps the degree d and reports the instance shape
// (rank <= 2, δ_B >= ⌈d/2⌉), which solver path fired, and validity; it also
// runs the direct randomized fix baseline for comparison.

#include <iostream>
#include <string>

#include "graph/generators.hpp"
#include "orient/sinkless.hpp"
#include "reductions/sinkless.hpp"
#include "runtime/select.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace ds;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  Rng rng(opts.seed());
  const std::size_t n = static_cast<std::size_t>(opts.get_int("n", 240));
  // --runtime=parallel [--threads=N] runs the message-passing trials on
  // thread ranks; outputs are bit-identical to the sequential executor.
  const auto runtime = runtime::runtime_from_options(opts);
  const auto executor = runtime::make_executor_factory(runtime);
  bool ok = true;

  std::cout << "E7 — Figure 1 / Theorem 2.10: sinkless orientation via weak "
               "splitting\n"
            << "LOCAL executor: " << runtime::runtime_description(runtime)
            << "\n";
  Table table({"d", "delta_B", "rank_B", "solver path", "sinkless",
               "baseline rounds", "msg-passing rounds (trials)"});
  for (std::size_t d : {5, 6, 8, 12, 16, 32}) {
    const auto g = graph::gen::random_regular(n, d, rng);
    // Inspect the constructed instance directly.
    std::vector<std::uint64_t> ids(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
    const auto b = reductions::build_sinkless_instance(g, ids);
    ok = ok && b.rank() <= 2 && 2 * b.min_left_degree() >= d;

    std::string algo;
    local::CostMeter meter;
    const auto orientation =
        reductions::sinkless_via_weak_splitting(g, rng, &meter, &algo);
    const bool sinkless = orient::is_sinkless(g, orientation, 1);
    ok = ok && sinkless;

    local::CostMeter baseline_meter;
    orient::sinkless_random_fix(g, rng, &baseline_meter);

    // The same protocol as a genuine message-passing program (fixed
    // O(log n) budget per Las Vegas trial).
    const auto program =
        orient::sinkless_program(g, opts.seed() + d, 1, nullptr, 30, executor);
    ok = ok && orient::is_sinkless(g, program.toward_v, 1);

    table.row()
        .num(d)
        .num(b.min_left_degree())
        .num(b.rank())
        .cell(algo)
        .cell(sinkless ? "yes" : "NO")
        .num(baseline_meter.executed_rounds())
        .cell(std::to_string(program.executed_rounds) + " (" +
              std::to_string(program.trials) + ")");
  }
  table.print(std::cout);
  std::cout << (ok ? "SHAPE CHECK: PASS" : "SHAPE CHECK: FAIL")
            << " (rank <= 2, delta_B >= d/2, every decoded orientation "
            << "sinkless)\n";
  return ok ? 0 : 1;
}
