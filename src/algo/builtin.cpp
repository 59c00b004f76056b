/// \file builtin.cpp
/// The one translation unit that knows every algorithm: builds the
/// registry's `Spec` list. Each adapter parses its typed params, runs the
/// algorithm through the executor factory in the RunContext, gathers
/// results through the output contract, and serializes them into the
/// canonical `output_words` the cross-runtime conformance suite diffs.

#include <algorithm>

#include "algo/registry.hpp"
#include "coloring/randcolor.hpp"
#include "coloring/reduce.hpp"
#include "coloring/verify.hpp"
#include "defective/defective_coloring.hpp"
#include "edgecolor/edge_coloring.hpp"
#include "local/cost.hpp"
#include "local/ids.hpp"
#include "mis/mis.hpp"
#include "netdecomp/decomposition.hpp"
#include "netdecomp/decomposition_program.hpp"
#include "netdecomp/derandomize.hpp"
#include "orient/sinkless.hpp"
#include "ruling/ruling_program.hpp"
#include "splitting/solver.hpp"
#include "splitting/splitting_program.hpp"
#include "support/check.hpp"

namespace ds::algo {

namespace {

const ParamSpec kIdsParam{"ids", ParamType::kString, "sequential",
                          "UID assignment: sequential, random or degree"};

local::IdStrategy ids_of(const RunContext& ctx) {
  return local::id_strategy_from_name(ctx.params.get("ids"));
}

/// `mis`'s summary lines from the MIS size and the executed rounds, shared
/// by `Spec::run` and the in-situ `summarize` hook so both briefs match.
std::vector<std::pair<std::string, std::string>> mis_summary(
    std::uint64_t size, std::size_t rounds) {
  return {
      {"mis-size", std::to_string(size)},
      {"phases", std::to_string((rounds + 1) / 2)},
      {"rounds", std::to_string(rounds)},
  };
}

Spec mis_spec() {
  Spec spec;
  spec.name = "mis";
  spec.description = "Luby's randomized maximal independent set";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kAnyRuntime;
  spec.params = {
      {"max-rounds", ParamType::kInt, "10000", "simulator round budget"},
      kIdsParam,
  };
  spec.verifier = "coloring::is_mis";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = mis::luby(
        *ctx.graph, ctx.seed, &meter,
        static_cast<std::size_t>(ctx.params.get_int("max-rounds")),
        ids_of(ctx), ctx.factory);
    Result result;
    result.executed_rounds = outcome.executed_rounds;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.reserve(outcome.in_mis.size());
    std::uint64_t size = 0;
    for (const bool in : outcome.in_mis) {
      result.output_words.push_back(in ? 1 : 0);
      size += in ? 1 : 0;
    }
    result.summary = mis_summary(size, outcome.executed_rounds);
    return result;
  };
  auto hooks = std::make_shared<InsituHooks>();
  hooks->make_factory = [](const Params& params, std::uint64_t) {
    DS_CHECK_MSG(params.get("ids") == "sequential",
                 "the in-situ path supports ids=sequential only (other "
                 "strategies need the whole UID table on every rank)");
    return mis::luby_program_factory();
  };
  hooks->output = mis::luby_output_fn();
  hooks->max_rounds = [](const Params& params) {
    return static_cast<std::size_t>(params.get_int("max-rounds"));
  };
  hooks->verify_node =
      [](graph::NodeId v, std::uint64_t value, const graph::NodeId* neighbors,
         std::size_t degree,
         const std::function<std::uint64_t(graph::NodeId)>& value_of) {
        bool dominated = value != 0;
        for (std::size_t p = 0; p < degree; ++p) {
          const std::uint64_t w = value_of(neighbors[p]);
          DS_CHECK_MSG(!(value != 0 && w != 0),
                       "MIS violation: adjacent nodes " + std::to_string(v) +
                           " and " + std::to_string(neighbors[p]) +
                           " both joined");
          dominated = dominated || w != 0;
        }
        DS_CHECK_MSG(dominated, "MIS violation: node " + std::to_string(v) +
                                    " is neither in the set nor dominated");
      };
  hooks->summarize = mis_summary;
  spec.insitu = std::move(hooks);
  return spec;
}

Spec color_spec() {
  Spec spec;
  spec.name = "color";
  spec.description = "randomized (Δ+1) trial coloring (Johansson)";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kAnyRuntime;
  spec.params = {
      {"max-rounds", ParamType::kInt, "10000", "simulator round budget"},
      kIdsParam,
  };
  spec.verifier = "coloring::is_proper_coloring";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = coloring::randomized_coloring(
        *ctx.graph, ctx.seed, &meter,
        static_cast<std::size_t>(ctx.params.get_int("max-rounds")),
        ids_of(ctx), ctx.factory);
    Result result;
    result.executed_rounds = outcome.executed_rounds;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.assign(outcome.colors.begin(), outcome.colors.end());
    result.add("colors", static_cast<std::uint64_t>(outcome.num_colors));
    result.add("rounds", outcome.executed_rounds);
    return result;
  };
  return spec;
}

Spec sinkless_spec() {
  Spec spec;
  spec.name = "sinkless";
  spec.description = "randomized sinkless orientation (Las Vegas sink flips)";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kAnyRuntime;
  spec.params = {
      {"min-degree", ParamType::kInt, "3",
       "only nodes of at least this degree must be non-sinks"},
      {"max-trials", ParamType::kInt, "30", "Las Vegas restart budget"},
  };
  spec.verifier = "orient::is_sinkless";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = orient::sinkless_program(
        *ctx.graph, ctx.seed,
        static_cast<std::size_t>(ctx.params.get_int("min-degree")), &meter,
        static_cast<std::size_t>(ctx.params.get_int("max-trials")),
        ctx.factory);
    Result result;
    result.executed_rounds = outcome.executed_rounds;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.reserve(outcome.toward_v.size());
    for (const bool toward : outcome.toward_v) {
      result.output_words.push_back(toward ? 1 : 0);
    }
    result.add("trials", outcome.trials);
    result.add("rounds", outcome.executed_rounds);
    return result;
  };
  return spec;
}

Spec ruling_spec() {
  Spec spec;
  spec.name = "ruling";
  spec.description = "deterministic (2, β) ruling set via UID-bit competition";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kAnyRuntime;
  spec.params = {kIdsParam};
  spec.verifier = "ruling::is_ruling_set";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = ruling::ruling_set_program(
        *ctx.graph, ctx.seed, ids_of(ctx), &meter, ctx.factory);
    Result result;
    result.executed_rounds = outcome.executed_rounds;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.reserve(outcome.result.in_set.size());
    std::size_t size = 0;
    for (const bool in : outcome.result.in_set) {
      result.output_words.push_back(in ? 1 : 0);
      size += in ? 1 : 0;
    }
    result.add("set-size", size);
    result.add("beta", outcome.result.beta);
    result.add("rounds", outcome.executed_rounds);
    return result;
  };
  return spec;
}

void serialize_decomposition(const netdecomp::Decomposition& decomp,
                             Result* result) {
  result->output_words.reserve(2 * decomp.cluster.size());
  for (const std::uint32_t cluster : decomp.cluster) {
    result->output_words.push_back(cluster);
    result->output_words.push_back(decomp.block[cluster]);
  }
  result->add("clusters", decomp.num_clusters);
  result->add("blocks", decomp.num_blocks);
  result->add("weak-diameter", decomp.max_weak_diameter);
}

Spec netdecomp_spec() {
  Spec spec;
  spec.name = "netdecomp";
  spec.description = "randomized Linial–Saks network decomposition";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kAnyRuntime;
  spec.params = {
      {"radius-cap", ParamType::kInt, "0",
       "geometric radius cap (0 = 2·log2 n + 4)"},
      kIdsParam,
  };
  spec.verifier = "netdecomp::is_network_decomposition";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = netdecomp::decomposition_program(
        *ctx.graph, ctx.seed,
        static_cast<std::size_t>(ctx.params.get_int("radius-cap")),
        ids_of(ctx), &meter, ctx.factory);
    Result result;
    result.executed_rounds = outcome.executed_rounds;
    result.charged_rounds = meter.charged_rounds();
    serialize_decomposition(outcome.decomposition, &result);
    result.add("rounds", outcome.executed_rounds);
    return result;
  };
  return spec;
}

Spec netdecomp_carve_spec() {
  Spec spec;
  spec.name = "netdecomp-carve";
  spec.description = "deterministic sequential ball-carving decomposition";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kSequentialOnly;
  spec.verifier = "netdecomp::is_network_decomposition";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto decomp = netdecomp::ball_carving(*ctx.graph, &meter);
    Result result;
    result.charged_rounds = meter.charged_rounds();
    serialize_decomposition(decomp, &result);
    return result;
  };
  return spec;
}

Spec mis_decomp_spec() {
  Spec spec;
  spec.name = "mis-decomp";
  spec.description = "deterministic MIS: greedy sweeps over ball carving";
  spec.input = InputKind::kGeneralGraph;
  // The [GHK16] derandomizer consumes a whole-graph decomposition and
  // sweeps it sequentially block by block.
  spec.capability = Capability::kSequentialOnly;
  spec.verifier = "coloring::is_mis";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto decomp = netdecomp::ball_carving(*ctx.graph, &meter);
    const auto in_mis =
        netdecomp::mis_via_decomposition(*ctx.graph, decomp, &meter);
    Result result;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.reserve(in_mis.size());
    std::size_t size = 0;
    for (const bool in : in_mis) {
      result.output_words.push_back(in ? 1 : 0);
      size += in ? 1 : 0;
    }
    result.add("mis-size", size);
    result.add("blocks", decomp.num_blocks);
    result.add("weak-diameter", decomp.max_weak_diameter);
    return result;
  };
  return spec;
}

Spec color_decomp_spec() {
  Spec spec;
  spec.name = "color-decomp";
  spec.description =
      "deterministic (Δ+1)-coloring: greedy sweeps over ball carving";
  spec.input = InputKind::kGeneralGraph;
  spec.capability = Capability::kSequentialOnly;
  spec.verifier = "coloring::is_proper_coloring";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto decomp = netdecomp::ball_carving(*ctx.graph, &meter);
    std::uint32_t palette = 0;
    const auto colors = netdecomp::coloring_via_decomposition(
        *ctx.graph, decomp, &palette, &meter);
    Result result;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.assign(colors.begin(), colors.end());
    result.add("colors", static_cast<std::uint64_t>(palette));
    result.add("blocks", decomp.num_blocks);
    result.add("weak-diameter", decomp.max_weak_diameter);
    return result;
  };
  return spec;
}

Spec defective_spec() {
  Spec spec;
  spec.name = "defective";
  spec.description =
      "f-defective 2^k-coloring via the iterated-splitting ladder";
  spec.input = InputKind::kGeneralGraph;
  // Each level splits every color class with the whole-graph uniform
  // splitter — the footnote-2 ladder is a global recursion, not a
  // message-passing program.
  spec.capability = Capability::kSequentialOnly;
  spec.params = {
      {"levels", ParamType::kInt, "3",
       "splitting depth k (the palette is 2^k colors)"},
      {"eps", ParamType::kDouble, "0.1", "per-split accuracy"},
      {"degree-threshold", ParamType::kInt, "0",
       "leave class degrees below max(this, 8) unconstrained"},
  };
  spec.verifier = "defective::is_defective_coloring";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    Rng rng(ctx.seed);
    const auto outcome = defective::defective_coloring(
        *ctx.graph, static_cast<std::size_t>(ctx.params.get_int("levels")),
        ctx.params.get_double("eps"),
        static_cast<std::size_t>(ctx.params.get_int("degree-threshold")),
        rng, &meter);
    DS_CHECK_MSG(defective::is_defective_coloring(*ctx.graph, outcome.colors,
                                                  outcome.max_defect),
                 "defective: output violates its own reported defect");
    Result result;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.assign(outcome.colors.begin(), outcome.colors.end());
    result.add("colors", static_cast<std::uint64_t>(outcome.num_colors));
    result.add("max-defect", static_cast<std::uint64_t>(outcome.max_defect));
    result.add("levels", static_cast<std::uint64_t>(outcome.levels));
    return result;
  };
  return spec;
}

Spec edgecolor_spec() {
  Spec spec;
  spec.name = "edgecolor";
  spec.description =
      "2Δ(1+o(1))-edge-coloring via recursive edge splitting [GS17]";
  spec.input = InputKind::kGeneralGraph;
  // Euler-trail edge splitting walks whole trails; the pipeline is a
  // whole-graph recursion like the other decomposition-based specs.
  spec.capability = Capability::kSequentialOnly;
  spec.params = {
      {"target-degree", ParamType::kInt, "8",
       "stop splitting once every class has at most this max degree", 1},
  };
  spec.verifier = "edgecolor::is_proper_edge_coloring";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = edgecolor::edge_coloring_via_splitting(
        *ctx.graph,
        static_cast<std::size_t>(ctx.params.get_int("target-degree")),
        &meter);
    DS_CHECK_MSG(
        edgecolor::is_proper_edge_coloring(*ctx.graph, outcome.colors),
        "edgecolor: output is not a proper edge coloring");
    Result result;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.assign(outcome.colors.begin(), outcome.colors.end());
    result.add("colors", static_cast<std::uint64_t>(outcome.num_colors));
    result.add("levels", static_cast<std::uint64_t>(outcome.levels));
    result.add("classes", static_cast<std::uint64_t>(outcome.num_classes));
    result.add("max-class-degree",
               static_cast<std::uint64_t>(outcome.max_class_degree));
    return result;
  };
  return spec;
}

std::size_t count_colors(const splitting::Coloring& colors,
                         splitting::Color which) {
  return static_cast<std::size_t>(
      std::count(colors.begin(), colors.end(), which));
}

Spec split_spec() {
  Spec spec;
  spec.name = "split";
  spec.description =
      "randomized weak splitting (coin + local repair, Las Vegas)";
  spec.input = InputKind::kBipartiteGraph;
  spec.capability = Capability::kAnyRuntime;
  spec.params = {
      {"min-degree", ParamType::kInt, "2",
       "only left nodes of at least this degree are constrained"},
      {"max-trials", ParamType::kInt, "40", "Las Vegas restart budget"},
  };
  spec.verifier = "splitting::is_weak_splitting";
  spec.run = [](const RunContext& ctx) {
    local::CostMeter meter;
    const auto outcome = splitting::weak_splitting_program(
        *ctx.bipartite, ctx.seed,
        static_cast<std::size_t>(ctx.params.get_int("min-degree")), &meter,
        static_cast<std::size_t>(ctx.params.get_int("max-trials")),
        ctx.factory);
    Result result;
    result.executed_rounds = outcome.executed_rounds;
    result.charged_rounds = meter.charged_rounds();
    result.output_words.reserve(outcome.colors.size());
    for (const splitting::Color c : outcome.colors) {
      result.output_words.push_back(static_cast<std::uint64_t>(c));
    }
    result.add("red", count_colors(outcome.colors, splitting::Color::kRed));
    result.add("blue", count_colors(outcome.colors, splitting::Color::kBlue));
    result.add("trials", outcome.trials);
    result.add("rounds", outcome.executed_rounds);
    return result;
  };
  return spec;
}

Spec weak_splitting_spec() {
  Spec spec;
  spec.name = "weak-splitting";
  spec.description =
      "solver facade: picks the paper's algorithm from (δ, Δ, r, girth)";
  spec.input = InputKind::kBipartiteGraph;
  // The facade's paths (derandomized conditional expectations, delta6r's
  // Euler-orientation pipeline, shattering residues) are whole-graph
  // sequential algorithms — the capability is reported, not hidden.
  spec.capability = Capability::kSequentialOnly;
  spec.params = {
      {"rand", ParamType::kFlag, "0",
       "prefer the randomized algorithm selection"},
      {"girth-hint", ParamType::kInt, "0",
       "skip the girth computation and trust this value (if >= 10)"},
      {"no-fallback", ParamType::kFlag, "0",
       "throw outside every theorem regime instead of the robust fallback"},
  };
  spec.verifier = "splitting::is_weak_splitting";
  spec.run = [](const RunContext& ctx) {
    splitting::SolverOptions options;
    options.deterministic = !ctx.params.get_flag("rand");
    options.girth_hint =
        static_cast<std::size_t>(ctx.params.get_int("girth-hint"));
    options.allow_fallback = !ctx.params.get_flag("no-fallback");
    Rng rng(ctx.seed);
    const auto solved =
        splitting::solve_weak_splitting(*ctx.bipartite, options, rng);
    Result result;
    result.executed_rounds = solved.meter.executed_rounds();
    result.charged_rounds = solved.meter.charged_rounds();
    result.output_words.reserve(solved.colors.size());
    for (const splitting::Color c : solved.colors) {
      result.output_words.push_back(static_cast<std::uint64_t>(c));
    }
    result.add("algorithm", splitting::algorithm_name(solved.algorithm));
    result.add("executed-rounds", solved.meter.executed_rounds());
    result.add("charged-rounds",
               std::to_string(solved.meter.charged_rounds()));
    return result;
  };
  return spec;
}

}  // namespace

std::vector<Spec> make_builtin_specs() {
  std::vector<Spec> specs;
  specs.push_back(mis_spec());
  specs.push_back(color_spec());
  specs.push_back(sinkless_spec());
  specs.push_back(ruling_spec());
  specs.push_back(netdecomp_spec());
  specs.push_back(netdecomp_carve_spec());
  specs.push_back(mis_decomp_spec());
  specs.push_back(color_decomp_spec());
  specs.push_back(defective_spec());
  specs.push_back(edgecolor_spec());
  specs.push_back(split_spec());
  specs.push_back(weak_splitting_spec());
  return specs;
}

}  // namespace ds::algo
