// E1 — Lemmas 2.1 & 2.2: the derandomized 0-round algorithm.
//
// Paper claims: for δ >= 2 log n the conditional-expectation pass scheduled
// by a B² coloring produces a valid weak splitting; Lemma 2.1 costs O(Δ·r)
// rounds, Lemma 2.2 truncates to Δ = ⌈2 log n⌉ first and costs O(r·log n).
// The table reports the initial potential (< 1 certifies success), validity,
// and the charged+executed rounds of both variants, whose ratio should track
// Δ / (2 log n).

#include <cmath>
#include <iostream>

#include "graph/generators.hpp"
#include "splitting/basic_derand.hpp"
#include "splitting/truncate.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace ds;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  Rng rng(opts.seed());

  Table table({"n", "delta", "r", "potential", "valid(2.1)", "rounds(2.1)",
               "rounds(2.2)", "ratio", "Δ/2logn"});
  bool all_valid = true;
  for (std::size_t scale : {1, 2, 4, 8}) {
    const std::size_t nu = 32 * scale;
    const std::size_t nv = 64 * scale;
    const std::size_t delta = 16 * scale;  // grows faster than 2 log n
    const auto b = graph::gen::random_biregular(nu, nv, delta, rng);

    local::CostMeter direct_meter;
    splitting::BasicDerandInfo direct_info;
    const auto direct =
        splitting::basic_derand_split(b, rng, &direct_meter, &direct_info);
    const bool direct_valid = splitting::is_weak_splitting(b, direct);
    all_valid = all_valid && direct_valid;

    local::CostMeter trunc_meter;
    splitting::BasicDerandInfo trunc_info;
    const auto truncated =
        splitting::truncated_split(b, rng, &trunc_meter, &trunc_info);
    all_valid = all_valid && splitting::is_weak_splitting(b, truncated);

    const double log_n = std::log2(static_cast<double>(b.num_nodes()));
    table.row()
        .num(b.num_nodes())
        .num(delta)
        .num(b.rank())
        .num(direct_info.initial_potential, 6)
        .cell(direct_valid ? "yes" : "NO")
        .num(direct_meter.total_rounds(), 1)
        .num(trunc_meter.total_rounds(), 1)
        .num(direct_meter.total_rounds() / trunc_meter.total_rounds(), 2)
        .num(static_cast<double>(delta) / (2.0 * log_n), 2);
  }
  std::cout << "E1 — Lemma 2.1/2.2: derandomized weak splitting\n";
  table.print(std::cout);
  std::cout << (all_valid ? "SHAPE CHECK: PASS" : "SHAPE CHECK: FAIL")
            << " (all outputs valid weak splittings)\n";
  return all_valid ? 0 : 1;
}
