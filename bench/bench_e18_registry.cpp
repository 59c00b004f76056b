// E18 — Extension: the algorithm registry, exercised end to end.
//
// Iterates every registered `algo::Spec` straight from the registry — no
// per-algorithm code in this driver — on generated instances matched to
// each spec's input kind, runs the distributed-capable ones on the
// sequential reference and on the selected scalable runtime
// (--runtime=parallel [--threads=N], default parallel at 2 threads), and
// checks the cross-runtime determinism contract: identical output digests
// and round counts. Sequential-only specs run on the reference executor,
// pinning that the capability gate reports them instead of hiding them.
//
//   $ ./bench_e18_registry [--seed=1] [--runtime=...]

#include <iostream>
#include <sstream>
#include <string>

#include "algo/registry.hpp"
#include "graph/generators.hpp"
#include "runtime/select.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace ds;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  runtime::RuntimeConfig scalable = runtime::runtime_from_options(opts);
  if (runtime::is_sequential(scalable)) {
    scalable.kind = runtime::RuntimeKind::kParallel;
    scalable.threads = 2;
  }
  Rng rng(opts.seed());
  const graph::Graph general = graph::gen::gnp(400, 0.02, rng);
  const auto bipartite = graph::gen::random_biregular(128, 256, 6, rng);
  bool ok = true;

  std::cout << "E18 — algorithm registry matrix (sequential vs "
            << runtime::runtime_description(scalable) << ")\n";
  Table table({"algo", "input", "runtimes", "rounds", "digest", "match",
               "verified"});
  for (const algo::Spec& spec : algo::all_specs()) {
    algo::RunContext ctx;
    ctx.seed = opts.seed();
    ctx.params = algo::Params::parse(spec.params, {});
    if (spec.input == algo::InputKind::kGeneralGraph) {
      ctx.graph = &general;
    } else {
      ctx.bipartite = &bipartite;
    }
    const algo::Result sequential = algo::execute(spec, ctx);
    bool match = true;
    if (spec.capability == algo::Capability::kAnyRuntime) {
      ctx.factory = runtime::make_executor_factory(scalable);
      ctx.sequential_runtime = false;
      const algo::Result distributed = algo::execute(spec, ctx);
      match = distributed.output_words == sequential.output_words &&
              distributed.executed_rounds == sequential.executed_rounds;
    }
    ok = ok && match && sequential.verified;
    std::ostringstream digest;
    digest << std::hex << sequential.output_digest();
    table.row()
        .cell(spec.name)
        .cell(algo::input_kind_name(spec.input))
        .cell(spec.capability == algo::Capability::kAnyRuntime
                  ? "all"
                  : "sequential")
        .num(sequential.executed_rounds)
        .cell(digest.str())
        .cell(match ? "yes" : "NO")
        .cell(sequential.verified ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << (ok ? "\nall registry checks passed\n"
                   : "\nREGISTRY CHECKS FAILED\n");
  return ok ? 0 : 1;
}
