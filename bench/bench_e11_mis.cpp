// E11 — Lemmas 4.2–4.4: MIS via splitting.
//
// Sweep Δ; every run must output a verified MIS of size >= n/(Δ+1)
// (Lemma 4.3). The table reports phases (O(log Δ) expected), elimination
// rounds, and splitting calls; the shape check asserts phases grow at most
// logarithmically with Δ.

#include <cmath>
#include <iostream>
#include <string>

#include "coloring/reduce.hpp"
#include "graph/generators.hpp"
#include "mis/mis.hpp"
#include "reductions/mis_via_splitting.hpp"
#include "runtime/select.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace ds;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  Rng rng(opts.seed());
  bool ok = true;

  std::cout << "E11 — Lemma 4.2: MIS via heavy-node elimination\n";
  Table table({"n", "Delta", "|MIS|", "n/(Delta+1)", "phases", "elim rounds",
               "splitting calls", "valid"});
  for (std::size_t delta : {16, 32, 64, 128, 256}) {
    const std::size_t n = std::max<std::size_t>(256, 2 * delta);
    const auto g = graph::gen::random_regular(n, delta, rng);
    reductions::MisConfig config;
    const auto result = reductions::mis_via_splitting(g, config, rng);
    const bool valid = coloring::is_mis(g, result.in_mis);
    ok = ok && valid;
    std::size_t size = 0;
    for (bool in : result.in_mis) size += in;
    ok = ok && size >= n / (delta + 1);
    // Phases bounded by ~log2(Delta) + slack.
    ok = ok && result.phases <=
                   static_cast<std::size_t>(std::log2(delta)) + 3;
    table.row()
        .num(n)
        .num(delta)
        .num(size)
        .num(n / (delta + 1))
        .num(result.phases)
        .num(result.elimination_rounds)
        .num(result.splitting_calls)
        .cell(valid ? "yes" : "NO");
  }
  table.print(std::cout);

  // Scenario mix beyond the regular instances: skewed preferential
  // attachment (Barabási–Albert) and spatially clustered random geometric
  // graphs, solved by Luby's message-passing MIS on the selected executor
  // (--runtime=parallel --threads=N; outputs are bit-identical).
  const auto runtime = runtime::runtime_from_options(opts);
  const auto executor = runtime::make_executor_factory(runtime);
  std::cout << "\nScenario mix: Luby MIS on skewed/geometric instances ("
            << runtime::runtime_description(runtime) << ")\n";
  Table mix({"instance", "n", "m", "Delta", "|MIS|", "n/(Delta+1)",
             "rounds", "valid"});
  struct Scenario {
    std::string name;
    graph::Graph g;
  };
  const Scenario scenarios[] = {
      {"barabasi-albert m=4", graph::gen::barabasi_albert(4096, 4, rng)},
      {"barabasi-albert m=16", graph::gen::barabasi_albert(2048, 16, rng)},
      {"geometric r=0.03", graph::gen::random_geometric_2d(3000, 0.03, rng)},
      {"geometric r=0.08", graph::gen::random_geometric_2d(1000, 0.08, rng)},
  };
  for (const Scenario& sc : scenarios) {
    const auto outcome = mis::luby(sc.g, opts.seed() + 3, nullptr, 10000,
                                   local::IdStrategy::kSequential, executor);
    const bool valid = coloring::is_mis(sc.g, outcome.in_mis);
    std::size_t size = 0;
    for (bool in : outcome.in_mis) size += in ? 1 : 0;
    const std::size_t delta = sc.g.max_degree();
    ok = ok && valid && size >= sc.g.num_nodes() / (delta + 1);
    mix.row()
        .cell(sc.name)
        .num(sc.g.num_nodes())
        .num(sc.g.num_edges())
        .num(delta)
        .num(size)
        .num(sc.g.num_nodes() / (delta + 1))
        .num(outcome.executed_rounds)
        .cell(valid ? "yes" : "NO");
  }
  mix.print(std::cout);

  std::cout << (ok ? "SHAPE CHECK: PASS" : "SHAPE CHECK: FAIL")
            << " (valid MIS; size >= n/(Δ+1); phases = O(log Δ))\n";
  return ok ? 0 : 1;
}
