// E15 — Extension: the derandomization route the paper motivates.
//
// [GKM17]: deterministic weak splitting => network decomposition;
// [GHK16]: network decomposition => deterministic algorithms for every
// locally checkable problem. This experiment executes the second half of
// that chain and measures its shape:
//   (a) decomposition quality — blocks c and weak diameter d of the
//       randomized Linial-Saks and the deterministic ball carving
//       constructions should both scale as O(log n);
//   (b) derandomized MIS / (Δ+1)-coloring through the decompositions —
//       valid outputs with O(c·d) = O(log² n)-shaped charged rounds,
//       against Luby's O(log n) executed rounds as the randomized yardstick.
//
//   $ ./bench_e15_netdecomp [--seed=1] [--degree=8]

#include <cmath>
#include <iostream>

#include "coloring/randcolor.hpp"
#include "coloring/reduce.hpp"
#include "coloring/verify.hpp"
#include "graph/generators.hpp"
#include "mis/mis.hpp"
#include "netdecomp/decomposition.hpp"
#include "netdecomp/derandomize.hpp"
#include "local/round_stats.hpp"
#include "runtime/select.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace ds;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto degree = static_cast<std::size_t>(opts.get_int("degree", 8));
  // --runtime=parallel [--threads=N] runs the message-passing executions
  // (Luby, trial coloring) on thread ranks; outputs are bit-identical.
  const auto runtime = runtime::runtime_from_options(opts);
  const auto executor = runtime::make_executor_factory(runtime);
  bool ok = true;

  std::cout << "E15 — Network decomposition and the [GHK16] derandomizer\n"
            << "LOCAL executor: " << runtime::runtime_description(runtime)
            << "\n\n";

  std::cout << "(a) decomposition quality (paper shape: c, d = O(log n))\n";
  Table quality({"n", "log2 n", "LS blocks", "LS diam", "BC blocks",
                 "BC diam"});
  for (std::size_t n : {128, 256, 512, 1024, 2048}) {
    Rng rng(opts.seed() + n);
    const auto g = graph::gen::random_regular(n, degree, rng);
    const auto ls = netdecomp::linial_saks(g, opts.seed() + n);
    const auto bc = netdecomp::ball_carving(g);
    const double logn = std::log2(static_cast<double>(n));
    // Shape checks: blocks within a constant factor of log2 n.
    ok = ok && ls.num_blocks <= static_cast<std::size_t>(8 * logn) + 8;
    ok = ok && bc.num_blocks <= static_cast<std::size_t>(logn) + 1;
    quality.row()
        .num(n)
        .num(logn, 1)
        .num(ls.num_blocks)
        .num(ls.max_weak_diameter)
        .num(bc.num_blocks)
        .num(bc.max_weak_diameter);
  }
  quality.print(std::cout);

  std::cout << "\n(b) derandomized MIS vs Luby (rounds: executed for Luby, "
               "charged O(c*d) for sweeps)\n";
  Table mis_table({"n", "luby size", "luby rounds", "sweep size",
                   "sweep rounds", "log^2 n", "valid"});
  for (std::size_t n : {128, 256, 512, 1024, 2048}) {
    Rng rng(opts.seed() + 17 * n);
    const auto g = graph::gen::random_regular(n, degree, rng);
    local::CostMeter luby_meter;
    const auto luby = mis::luby(g, opts.seed() + n, &luby_meter, 10000,
                                local::IdStrategy::kSequential, executor);
    const auto bc = netdecomp::ball_carving(g);
    local::CostMeter sweep_meter;
    const auto sweep = netdecomp::mis_via_decomposition(g, bc, &sweep_meter);
    auto count = [](const std::vector<bool>& s) {
      std::size_t c = 0;
      for (bool b : s) c += b ? 1 : 0;
      return c;
    };
    const bool valid =
        coloring::is_mis(g, luby.in_mis) && coloring::is_mis(g, sweep);
    ok = ok && valid;
    const double logn = std::log2(static_cast<double>(n));
    mis_table.row()
        .num(n)
        .num(count(luby.in_mis))
        .num(luby_meter.total_rounds(), 1)
        .num(count(sweep))
        .num(sweep_meter.total_rounds(), 1)
        .num(logn * logn, 1)
        .cell(valid ? "yes" : "NO");
  }
  mis_table.print(std::cout);

  std::cout << "\n(c) (Δ+1)-coloring: randomized trial coloring (executed "
               "rounds) vs derandomized sweep (charged rounds)\n";
  Table color_table({"n", "rand palette", "rand rounds", "sweep palette",
                     "sweep rounds", "proper"});
  for (std::size_t n : {128, 512, 2048}) {
    Rng rng(opts.seed() + 31 * n);
    const auto g = graph::gen::random_regular(n, degree, rng);
    const auto rand_outcome = coloring::randomized_coloring(
        g, opts.seed() + n, nullptr, 10000, local::IdStrategy::kSequential,
        executor);
    const auto bc = netdecomp::ball_carving(g);
    std::uint32_t palette = 0;
    local::CostMeter meter;
    const auto colors =
        netdecomp::coloring_via_decomposition(g, bc, &palette, &meter);
    const bool proper = coloring::is_proper_coloring(g, colors) &&
                        coloring::is_proper_coloring(g, rand_outcome.colors);
    ok = ok && proper && palette <= degree + 1 &&
         rand_outcome.num_colors <= degree + 1;
    color_table.row()
        .num(n)
        .num(static_cast<std::size_t>(rand_outcome.num_colors))
        .num(rand_outcome.executed_rounds)
        .num(static_cast<std::size_t>(palette))
        .num(meter.charged_rounds(), 1)
        .cell(proper ? "yes" : "NO");
  }
  color_table.print(std::cout);

  // Per-round executor trace (local::RoundStats) of the two randomized
  // message-passing executions at the largest instance: how traffic decays
  // as nodes halt is the shape the runtime's sharding and arena sizing are
  // tuned against.
  std::cout << "\n(d) per-round message/byte trace (n = 2048, "
            << runtime::runtime_description(runtime) << ")\n";
  {
    const std::size_t n = 2048;
    Rng rng(opts.seed() + 97);
    const auto g = graph::gen::random_regular(n, degree, rng);
    std::vector<local::RoundStats> trace;
    const auto traced = runtime::make_executor_factory(
        runtime,
        [&trace](const local::RoundStats& s) { trace.push_back(s); });
    const auto luby = mis::luby(g, opts.seed() + n, nullptr, 10000,
                                local::IdStrategy::kSequential, traced);
    const std::size_t luby_rounds = trace.size();
    const auto rand_col = coloring::randomized_coloring(
        g, opts.seed() + n, nullptr, 10000, local::IdStrategy::kSequential,
        traced);
    ok = ok && coloring::is_mis(g, luby.in_mis) &&
         coloring::is_proper_coloring(g, rand_col.colors);
    Table trace_table({"algo", "round", "live", "messages", "words",
                       "bytes"});
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const local::RoundStats& s = trace[i];
      trace_table.row()
          .cell(i < luby_rounds ? "luby" : "trial-color")
          .num(s.round)
          .num(s.live_nodes)
          .num(s.messages)
          .num(s.payload_words)
          .num(8 * s.payload_words);
    }
    trace_table.print(std::cout);
  }

  std::cout << "\nE15 " << (ok ? "PASS" : "FAIL")
            << " — decomposition shapes are logarithmic and both sweeps "
               "verify\n";
  return ok ? 0 : 1;
}
