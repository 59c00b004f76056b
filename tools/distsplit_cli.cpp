/// \file distsplit_cli.cpp
/// Command-line front end of the library, for downstream users who want to
/// run the solvers on their own instances without writing C++.
///
/// Subcommands (first positional argument):
///   gen      --nu=N --nv=N --delta=D [--seed=S] [--unified] [--out=F.dsg]
///            Generate a random (δ, r)-biregular bipartite instance and
///            write it to stdout in the edge-list format of graph/io.hpp
///            (--unified: the unified general graph instead, for the
///            general-input algorithms; --out: the packed binary .dsg
///            format instead of stdout, bipartite split recorded).
///   pack     (--gen=SPEC [--seed=S] | --input=FILE) --out=FILE.dsg
///            Pack an instance into the mmap-able binary CSR format of
///            graph/format.hpp: either a deterministic generator instance
///            ("torus:w=64,h=64", see graph/insitu.hpp for the families)
///            or an edge-list file. The written file is re-opened and its
///            payload digest verified before reporting success.
///   stats    --input=FILE
///            Print instance parameters (n, m, δ, Δ, r, girth).
///   list     [--names] [--scalable] [--markdown]
///            The algorithm catalog, straight from the registry: the
///            human-readable form, a machine-readable name listing for
///            scripts/CI, or the README markdown table.
///   run      --algo=NAME (--input=FILE | --graph=FILE.dsg | --gen=SPEC)
///            [--seed=S] [--param=key=value ...]
///            [--metrics=FILE] [--trace=FILE] [--stats]
///            [--profile=FILE] [--http-port=P] [--event-cap=N]
///            + the runtime flags below
///            Run any registered algorithm on any in-process runtime
///            (sequential, parallel; TCP fleets run through
///            distsplit_rank). Dispatch, usage text and parameter help all
///            come from the registry — there is no per-algorithm code in
///            this tool. The source and observability flags are the shared
///            front end's (tools/frontend.hpp); on parallel the recorder
///            merges every rank's drained block, so the files hold
///            fleet-wide data.
///   submit   --port=P [--host=H] --algo=NAME [--seed=S]
///            [--param=key=value ...] [--id=N] [--timeout-ms=MS]
///            Submit one run to a resident distsplit_serve daemon's request
///            port and print its answer. The daemon executes over its
///            standing fleet; for any scalable spec the reported
///            output-digest is bit-identical to the one-shot `run` on the
///            same (instance, seed, params). Exit 0 on a served run, 3 on a
///            rejection (queue full, draining, unhealthy fleet — retry
///            later), 2 on an error.
///
/// Exit code 0 on success, 1 on bad usage (unknown subcommand, algorithm,
/// flag or parameter — with a did-you-mean suggestion where possible) or a
/// rejected/corrupt .dsg file (versioned-magic validation names the byte
/// that failed), 2 on an execution failure (I/O, solver rejection, aborted
/// fleet), 3 on a rejected `submit`.

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "dist/distributed_network.hpp"
#include "frontend.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "runtime/select.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

namespace {

using namespace ds;

int usage() {
  std::cerr
      << "usage: distsplit_cli <gen|pack|stats|list|run|submit> "
         "[--key=value...]\n"
         "  gen    --nu=N --nv=N --delta=D [--seed=S] [--unified] "
         "[--out=F.dsg]\n"
         "  pack   (--gen=SPEC [--seed=S] | --input=FILE) --out=FILE.dsg\n"
         "  stats  --input=FILE\n"
         "  list   [--names] [--scalable] [--markdown]\n"
         "  run    --algo=NAME (--input=FILE | --graph=FILE.dsg | "
         "--gen=SPEC)\n"
         "         [--seed=S] [--param=key=value ...]\n"
         "         [--metrics=FILE] [--trace=FILE] [--stats]\n"
         "         [--profile=FILE] [--http-port=P] [--event-cap=N]\n"
         "         "
      << runtime::kRuntimeFlagsHelp
      << "\n  submit --port=P [--host=H] --algo=NAME [--seed=S] "
         "[--param=key=value ...]\n"
         "         [--id=N] [--timeout-ms=MS]"
      << "\n\nregistered algorithms (see also: distsplit_cli list):\n"
      << algo::usage_catalog();
  return 1;
}

int cmd_gen(const Options& opts) {
  const auto nu = static_cast<std::size_t>(opts.get_int("nu", 256));
  const auto nv = static_cast<std::size_t>(opts.get_int("nv", 256));
  const auto delta = static_cast<std::size_t>(opts.get_int("delta", 16));
  Rng rng(opts.seed());
  // Right degrees (the rank) follow from nu*delta/nv; pick nv accordingly.
  const auto b = graph::gen::random_biregular(nu, nv, delta, rng);
  const std::string out = opts.get("out", "");
  if (!out.empty()) {
    // Packed binary form of the unified instance; the left-side size in the
    // header lets bipartite-input consumers recover the split.
    graph::write_dsg(b.unified(), out, b.num_left(), opts.seed());
    std::cout << "packed: " << out << " (n="
              << (b.num_left() + b.num_right()) << ", m=" << b.num_edges()
              << ", nu=" << b.num_left() << ")\n";
    return 0;
  }
  if (opts.has("unified")) {
    // General-graph edge list of the unified instance, consumable by the
    // general-input algorithms (`run --algo=mis` etc.).
    graph::io::write_edge_list(std::cout, b.unified());
  } else {
    graph::io::write_bipartite(std::cout, b);
  }
  return 0;
}

int cmd_pack(const Options& opts) {
  const std::string out = opts.get("out", "");
  DS_CHECK_MSG(!out.empty(), "--out=FILE.dsg is required");
  const frontend::Instance inst = frontend::load_instance(
      opts, algo::InputKind::kGeneralGraph, "pack");
  graph::write_dsg(inst.graph, out, inst.nu, opts.seed());
  // Read-back verification: mmap the file we just wrote and check the
  // payload digest, so a pack that silently truncated cannot enter a CI
  // fixture cache looking healthy.
  graph::DsgHeader header;
  (void)graph::load_dsg(out, &header, /*verify_digest=*/true);
  std::cout << "packed: " << out << " (n=" << header.n << ", m=" << header.m
            << ", nu=" << header.nu << ", digest=0x" << std::hex
            << header.payload_digest << std::dec << ")\n";
  return 0;
}

int cmd_stats(const Options& opts) {
  const graph::BipartiteGraph b =
      frontend::load_instance(opts, algo::InputKind::kBipartiteGraph, "stats")
          .bipartite;
  const graph::Graph unified = b.unified();
  std::cout << "left nodes (U):   " << b.num_left() << "\n"
            << "right nodes (V):  " << b.num_right() << "\n"
            << "edges:            " << b.num_edges() << "\n"
            << "min left degree:  " << b.min_left_degree() << "\n"
            << "max left degree:  " << b.max_left_degree() << "\n"
            << "rank r:           " << b.rank() << "\n"
            << "girth:            ";
  const std::size_t girth = graph::girth(unified);
  if (girth == SIZE_MAX) {
    std::cout << "inf (forest)\n";
  } else {
    std::cout << girth << "\n";
  }
  return 0;
}

int cmd_list(const Options& opts) {
  if (opts.has("markdown")) {
    std::cout << algo::catalog_markdown();
  } else if (opts.has("names")) {
    std::cout << algo::names_listing(opts.has("scalable"));
  } else {
    std::cout << algo::usage_catalog(opts.has("scalable"));
  }
  return 0;
}

/// The `submit` flags (everything else must be an algorithm parameter
/// passed as --param=key=value — the daemon validates them server-side).
const std::vector<std::string> kSubmitFlags = {
    "host", "port", "algo", "seed", "param", "id", "timeout-ms",
};

int cmd_submit(const Options& opts) {
  frontend::check_flags(opts, kSubmitFlags);
  serve::ClientConfig config;
  config.host = opts.get("host", "127.0.0.1");
  config.port = frontend::port_flag(opts, "port");
  DS_CHECK_MSG(config.port != 0,
               "--port=P (the daemon's request port) is required");
  config.timeout_ms = static_cast<int>(opts.get_int("timeout-ms", 120000));

  serve::Request request;
  request.algo = opts.get("algo", "");
  DS_CHECK_MSG(!request.algo.empty(),
               "--algo=NAME is required (see: distsplit_cli list)");
  request.seed = opts.seed();
  request.id = static_cast<std::uint64_t>(opts.get_int("id", 1));
  request.params = algo::parse_param_overrides(opts.get_all("param"));

  const serve::Response response = serve::submit(config, request);
  switch (response.status) {
    case serve::Status::kOk:
      // The same digest line the one-shot `run` prints, so serving can be
      // diffed against it byte-for-byte.
      std::cout << request.algo << ": " << response.brief << "\n"
                << "rounds: " << response.rounds << "\n"
                << "wall-us: " << response.wall_us << "\n"
                << "output-digest: " << std::hex << response.output_digest
                << std::dec << "\n";
      return 0;
    case serve::Status::kRejected:
      std::cerr << "submit rejected: " << response.brief << "\n";
      return 3;
    case serve::Status::kError:
      break;
  }
  std::cerr << "submit failed: " << response.brief << "\n";
  return 2;
}

/// The `run` flags that belong to the driver itself (everything else must
/// be a registered algorithm parameter passed as --param=key=value).
const std::vector<std::string> kRunFlags = {
    "algo",    "input",   "graph",   "gen",   "seed",      "param",   "runtime",
    "threads", "metrics", "trace",   "stats", "http-port", "event-cap",
    "profile",
};

/// The flags of the removed forked-rank runtime, pointed at the one
/// runtime knob left: thread ranks size their halo and gather buffers
/// themselves.
const std::map<std::string, std::string> kRetiredRunFlags = {
    {"workers", "threads"},
    {"halo-words", "threads"},
    {"gather-words", "threads"},
};

/// Resolution phase of `run`: anything wrong here is a usage error (exit
/// 1). Throws ds::CheckError with a did-you-mean suggestion on unknown
/// flags, algorithm names and parameter keys, and naming the flag on a
/// malformed or out-of-range number.
struct RunPlan {
  const algo::Spec* spec = nullptr;
  algo::Params params;
  runtime::RuntimeConfig runtime;
  std::uint64_t seed = 1;
  frontend::ObsFlags obs;
};

RunPlan resolve_run(const Options& opts) {
  frontend::check_flags(opts, kRunFlags, frontend::kParamsNote,
                        kRetiredRunFlags);
  RunPlan plan;
  const std::string name = opts.get("algo", "");
  DS_CHECK_MSG(!name.empty(), "--algo=NAME is required (see: list)");
  plan.spec = &algo::find(name);
  plan.params = algo::Params::parse(
      plan.spec->params, algo::parse_param_overrides(opts.get_all("param")));
  plan.runtime = runtime::runtime_from_options(opts);
  plan.seed = opts.seed();
  plan.obs = frontend::ObsFlags(opts, /*max_rank=*/0);
  return plan;
}

/// Edge-cut stats of the partition the distributed executors actually ran
/// — a pure function of the CSR degree profile and the part count.
void print_partition_stats(const graph::Graph& g, std::size_t parts) {
  const auto bounds = dist::degree_balanced_boundaries(g.offsets(), parts);
  const dist::PartitionStats stats =
      dist::partition_stats(g, g.offsets(), bounds);
  std::cout << "partition: " << stats.cut_edges << " cut edges, "
            << stats.internal_edges << " internal, balance "
            << stats.balance_factor << "\n";
}

int cmd_run(const RunPlan& plan, const Options& opts) {
  const algo::Spec& spec = *plan.spec;
  const std::string runtime = runtime::runtime_description(plan.runtime);
  frontend::ObsSession session(plan.obs, /*rank=*/0, /*prefix=*/"",
                               {{"tool", "distsplit_cli"},
                                {"algo", spec.name},
                                {"runtime", runtime},
                                {"seed", std::to_string(plan.seed)}});
  algo::RunContext ctx;
  ctx.seed = plan.seed;
  ctx.params = plan.params;
  ctx.factory =
      runtime::make_executor_factory(plan.runtime, {}, session.recorder());
  ctx.sequential_runtime = runtime::is_sequential(plan.runtime);
  ctx.recorder = session.recorder();

  const frontend::Instance inst =
      frontend::load_instance(opts, spec.input, "--algo=" + spec.name);
  if (spec.input == algo::InputKind::kGeneralGraph) {
    ctx.graph = &inst.graph;
  } else {
    ctx.bipartite = &inst.bipartite;
  }

  std::cout << "algorithm: " << spec.name << "\n"
            << "executor: " << runtime << "\n";
  if (!runtime::is_sequential(plan.runtime) && ctx.graph != nullptr) {
    print_partition_stats(*ctx.graph,
                          dist::DistributedNetwork::resolve_workers(
                              plan.runtime.threads, ctx.graph->num_nodes()));
  }

  algo::Result result;
  session.run(spec.name, [&] { result = algo::execute(spec, ctx); });
  for (const auto& [key, value] : result.summary) {
    std::cout << key << ": " << value << "\n";
  }
  std::cout << "verified: " << (result.verified ? "yes" : "no") << "\n";
  std::cout << "output-digest: " << std::hex << result.output_digest()
            << std::dec << "\n";
  session.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Options opts(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(opts);
    if (cmd == "pack") return cmd_pack(opts);
    if (cmd == "stats") return cmd_stats(opts);
    if (cmd == "list") return cmd_list(opts);
    if (cmd == "submit") return cmd_submit(opts);
    if (cmd == "run") {
      // Resolution errors are usage errors (exit 1); execution errors keep
      // the historical exit code 2.
      RunPlan plan;
      try {
        plan = resolve_run(opts);
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
      return cmd_run(plan, opts);
    }
    std::cerr << "error: unknown subcommand '" << cmd << "'\n";
    return usage();
  } catch (const graph::FormatError& e) {
    // A rejected .dsg file (bad magic/version/endianness/size/digest) is a
    // usage-class failure: the file named on the command line is not a
    // valid instance. CI's corruption test keys on this exit code.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
