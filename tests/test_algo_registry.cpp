// Tests for the unified algorithm registry (src/algo/): catalog sanity,
// did-you-mean suggestions, typed parameter parsing, the capability gate,
// and the cross-runtime conformance suite — every registered Spec runs on
// {sequential, parallel at 2 and 4 thread ranks, tcp-loopback} over {gnp,
// torus, BA} (or the matching biregular instances for bipartite specs)
// with bit-identical outputs vs the sequential reference, while
// kSequentialOnly specs refuse scalable runtimes with a clear error.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "graph/generators.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

namespace ds::algo {
namespace {

std::string error_of(const std::function<void()>& body) {
  try {
    body();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// ---- Catalog sanity ------------------------------------------------------

TEST(Registry, CatalogIsCompleteAndUnique) {
  const auto& specs = all_specs();
  ASSERT_GE(specs.size(), 5u);
  std::set<std::string> names;
  for (const Spec& s : specs) {
    EXPECT_TRUE(names.insert(s.name).second) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_FALSE(s.verifier.empty()) << s.name;
    EXPECT_TRUE(s.run != nullptr) << s.name;
    EXPECT_EQ(&find(s.name), &s);
  }
  // The acceptance floor: at least five distributed-capable algorithms,
  // including one from src/splitting/.
  std::size_t scalable = 0;
  for (const Spec& s : specs) {
    if (s.capability == Capability::kAnyRuntime) ++scalable;
  }
  EXPECT_GE(scalable, 5u);
  EXPECT_EQ(find("split").capability, Capability::kAnyRuntime);
}

TEST(Registry, GeneratedListingsMentionEverySpec) {
  const std::string markdown = catalog_markdown();
  const std::string usage = usage_catalog();
  const std::string names = names_listing(false);
  for (const Spec& s : all_specs()) {
    EXPECT_NE(markdown.find("`" + s.name + "`"), std::string::npos) << s.name;
    EXPECT_NE(usage.find(s.name), std::string::npos) << s.name;
    EXPECT_NE(names.find(s.name), std::string::npos) << s.name;
  }
  // The scalable listing drops exactly the sequential-only specs.
  const std::string scalable = names_listing(true);
  EXPECT_EQ(scalable.find("weak-splitting"), std::string::npos) << scalable;
  EXPECT_EQ(scalable.find("netdecomp-carve"), std::string::npos) << scalable;
  EXPECT_NE(scalable.find("mis general all"), std::string::npos) << scalable;
  EXPECT_NE(scalable.find("split bipartite all"), std::string::npos)
      << scalable;
}

// ---- Did-you-mean + unknown-flag handling --------------------------------

TEST(Registry, UnknownAlgoSuggestsClosestName) {
  const std::string msg = error_of([] { find("colour"); });
  EXPECT_NE(msg.find("unknown algorithm 'colour'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'color'?"), std::string::npos) << msg;
}

TEST(Registry, UnknownAlgoWithoutCloseMatchListsKnownNames) {
  const std::string msg = error_of([] { find("zzzzzz"); });
  EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  EXPECT_NE(msg.find("known:"), std::string::npos) << msg;
}

TEST(Suggest, FindsCloseCandidatesOnly) {
  const std::vector<std::string> candidates = {"threads", "workers", "hosts"};
  EXPECT_EQ(suggest("thread", candidates), "threads");
  EXPECT_EQ(suggest("worker", candidates), "workers");
  EXPECT_EQ(suggest("completely-different", candidates), "");
}

TEST(Params, DefaultsAndOverrides) {
  const std::vector<ParamSpec> schema = {
      {"max-rounds", ParamType::kInt, "10000", ""},
      {"eps", ParamType::kDouble, "0.5", ""},
      {"fast", ParamType::kFlag, "0", ""},
      {"ids", ParamType::kString, "sequential", ""},
  };
  const Params defaults = Params::parse(schema, {});
  EXPECT_EQ(defaults.get_int("max-rounds"), 10000);
  EXPECT_DOUBLE_EQ(defaults.get_double("eps"), 0.5);
  EXPECT_FALSE(defaults.get_flag("fast"));
  EXPECT_EQ(defaults.get("ids"), "sequential");
  const Params overridden = Params::parse(
      schema, {{"max-rounds", "7"}, {"fast", "true"}, {"ids", "random"}});
  EXPECT_EQ(overridden.get_int("max-rounds"), 7);
  EXPECT_TRUE(overridden.get_flag("fast"));
  EXPECT_EQ(overridden.get("ids"), "random");
}

TEST(Params, UnknownKeySuggestsAndListsKnown) {
  const std::vector<ParamSpec> schema = {
      {"max-rounds", ParamType::kInt, "10000", ""},
      {"min-degree", ParamType::kInt, "3", ""},
  };
  const std::string msg = error_of(
      [&] { Params::parse(schema, {{"max-round", "5"}}); });
  EXPECT_NE(msg.find("unknown parameter 'max-round'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("did you mean 'max-rounds'?"), std::string::npos) << msg;
  EXPECT_NE(msg.find("known: max-rounds, min-degree"), std::string::npos)
      << msg;
}

TEST(Params, TypeErrorsAreRejected) {
  const std::vector<ParamSpec> schema = {
      {"n", ParamType::kInt, "1", ""},
      {"p", ParamType::kDouble, "0.5", ""},
      {"f", ParamType::kFlag, "0", ""},
  };
  EXPECT_THROW(Params::parse(schema, {{"n", "abc"}}), ds::CheckError);
  EXPECT_THROW(Params::parse(schema, {{"n", "1.5"}}), ds::CheckError);
  // Counts must not wrap through std::size_t: negatives are rejected
  // unless the schema explicitly lowers min_value.
  EXPECT_THROW(Params::parse(schema, {{"n", "-1"}}), ds::CheckError);
  EXPECT_THROW(Params::parse(schema, {{"p", "lots"}}), ds::CheckError);
  EXPECT_THROW(Params::parse(schema, {{"f", "maybe"}}), ds::CheckError);
  // Reading a key outside the schema is a bug, not a typo path.
  EXPECT_THROW((void)Params::parse(schema, {}).get_int("missing"),
               ds::CheckError);
}

// ---- Capability gate -----------------------------------------------------

TEST(Registry, SequentialOnlySpecsRefuseScalableRuntimes) {
  Rng rng(3);
  const auto b = graph::gen::random_biregular(24, 48, 6, rng);
  for (const Spec& s : all_specs()) {
    if (s.capability != Capability::kSequentialOnly) continue;
    RunContext ctx;
    ctx.bipartite = &b;
    ctx.sequential_runtime = false;  // any non-sequential runtime
    const std::string msg = error_of([&] { execute(s, ctx); });
    EXPECT_NE(msg.find("sequential-only"), std::string::npos) << s.name;
    EXPECT_NE(msg.find(s.name), std::string::npos) << s.name;
  }
}

TEST(Registry, SequentialOnlySpecsRunSequentially) {
  Rng rng(4);
  const graph::Graph g = graph::gen::gnp(40, 0.15, rng);
  const auto b = graph::gen::random_biregular(24, 48, 6, rng);
  for (const Spec& s : all_specs()) {
    if (s.capability != Capability::kSequentialOnly) continue;
    RunContext ctx;
    ctx.graph = &g;
    ctx.bipartite = &b;
    ctx.seed = 5;
    ctx.params = Params::parse(s.params, {});
    const Result result = execute(s, ctx);
    EXPECT_TRUE(result.verified) << s.name;
    EXPECT_FALSE(result.output_words.empty()) << s.name;
  }
}

// ---- Cross-runtime conformance -------------------------------------------

struct Instance {
  std::string label;
  graph::Graph graph;
  graph::BipartiteGraph bipartite;
};

std::vector<Instance> instances_for(const Spec& spec) {
  std::vector<Instance> out;
  if (spec.input == InputKind::kGeneralGraph) {
    Rng rng(11);
    out.push_back({"gnp", graph::gen::gnp(60, 0.12, rng), {}});
    out.push_back({"torus", graph::gen::torus(7, 6), {}});
    out.push_back({"ba", graph::gen::barabasi_albert(70, 3, rng), {}});
  } else {
    // The bipartite counterparts of the sweep: biregular instances at
    // three degree/size shapes.
    Rng rng(12);
    out.push_back({"bireg6", graph::Graph(),
                   graph::gen::random_biregular(32, 64, 6, rng)});
    out.push_back({"bireg4", graph::Graph(),
                   graph::gen::random_biregular(24, 24, 4, rng)});
    out.push_back({"bireg8", graph::Graph(),
                   graph::gen::random_biregular(48, 96, 8, rng)});
  }
  return out;
}

RunContext context_for(const Spec& spec, const Instance& inst,
                       local::ExecutorFactory factory, bool sequential) {
  RunContext ctx;
  if (spec.input == InputKind::kGeneralGraph) {
    ctx.graph = &inst.graph;
  } else {
    ctx.bipartite = &inst.bipartite;
  }
  ctx.seed = 9;
  ctx.params = Params::parse(spec.params, {});
  ctx.factory = std::move(factory);
  ctx.sequential_runtime = sequential;
  return ctx;
}

TEST(Conformance, EverySpecMatchesSequentialOnThreadRanks) {
  for (const Spec& spec : all_specs()) {
    if (spec.capability != Capability::kAnyRuntime) continue;
    for (const Instance& inst : instances_for(spec)) {
      const Result expected =
          execute(spec, context_for(spec, inst, {}, true));
      EXPECT_TRUE(expected.verified) << spec.name << "/" << inst.label;
      for (const std::size_t threads : {2u, 4u}) {
        runtime::RuntimeConfig config;
        config.kind = runtime::RuntimeKind::kParallel;
        config.threads = threads;
        const Result got = execute(
            spec, context_for(spec, inst,
                              runtime::make_executor_factory(config), false));
        EXPECT_EQ(got.output_words, expected.output_words)
            << spec.name << "/" << inst.label << "/threads=" << threads;
        EXPECT_EQ(got.executed_rounds, expected.executed_rounds)
            << spec.name << "/" << inst.label << "/threads=" << threads;
        EXPECT_EQ(got.summary, expected.summary)
            << spec.name << "/" << inst.label << "/threads=" << threads;
        EXPECT_TRUE(got.verified) << spec.name << "/" << inst.label;
      }
    }
  }
}

TEST(Conformance, EverySpecMatchesSequentialOnTcpLoopback) {
  // One instance per spec keeps the fleet count bounded; the thread-rank
  // sweep above already covers the full instance grid.
  net::TcpOptions topts;
  topts.handshake_timeout_ms = 20000;
  topts.round_timeout_ms = 30000;
  for (const Spec& spec : all_specs()) {
    if (spec.capability != Capability::kAnyRuntime) continue;
    const Instance inst = instances_for(spec).front();
    const Result expected = execute(spec, context_for(spec, inst, {}, true));
    const net::LoopbackReport report = net::run_loopback_ranks(
        2, [&](net::LoopbackRank&& lr) -> int {
          net::TcpTransport transport(lr.rank, lr.hosts, {}, topts,
                                      std::move(lr.listen));
          local::ExecutorFactory factory = [&](const graph::Graph& fg) {
            return std::make_shared<net::TcpNetwork>(fg, transport);
          };
          const Result got = execute(
              spec, context_for(spec, inst, std::move(factory), false));
          // Exit-code checks, not EXPECT: a gtest failure on the forked
          // child rank would die silently with the process.
          if (got.output_words != expected.output_words) return 6;
          if (got.executed_rounds != expected.executed_rounds) return 7;
          return 0;
        });
    EXPECT_TRUE(report.all_ok()) << spec.name;
  }
}

}  // namespace
}  // namespace ds::algo
