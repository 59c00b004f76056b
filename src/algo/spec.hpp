#pragma once

/// \file spec.hpp
/// The unified algorithm API: an `algo::Spec` bundles everything a driver
/// (CLI, rank launcher, bench, conformance suite) needs to run one of the
/// library's algorithms on any LOCAL runtime without algorithm-specific
/// code — a stable name, a typed parameter schema, the input kind, the
/// runtime capability, an entry point consuming the PR 3
/// `ExecutorFactory` + output-gather contract, and a verifier.
///
/// Drivers parse `--param key=value` overrides against the schema
/// (`Params::parse` rejects unknown keys with a did-you-mean suggestion),
/// build a `RunContext`, and call `algo::execute` (registry.hpp), which
/// enforces the capability gate and returns a `Result` whose
/// `output_words` are the canonical machine-readable outputs — the value
/// the cross-runtime conformance suite diffs bit-for-bit.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/graph.hpp"
#include "local/executor.hpp"
#include "obs/metrics.hpp"

namespace ds::obs {
class Recorder;
}  // namespace ds::obs

namespace ds::algo {

/// Value type of one declared parameter.
enum class ParamType { kInt, kDouble, kFlag, kString };

/// One declared parameter of a Spec: key, type, textual default, help line.
struct ParamSpec {
  std::string key;
  ParamType type = ParamType::kInt;
  std::string default_value;
  std::string help;
  /// Smallest accepted value for kInt params. Every current parameter is a
  /// count or budget, so the default rejects negatives — which would
  /// otherwise wrap through std::size_t into ~2^64 round caps or vacuous
  /// verifier thresholds.
  long long min_value = 0;
};

/// Human-readable type name ("int", "double", "flag", "string").
std::string param_type_name(ParamType type);

/// The closest candidate within a small edit distance of `got`, or "" when
/// nothing is plausibly a typo. Shared by the registry ("did you mean"
/// suggestions for --algo) and Params ("did you mean" for --param keys).
std::string suggest(const std::string& got,
                    const std::vector<std::string>& candidates);

/// Splits repeated `--param=key=value` occurrences (a bare `--param=key`
/// means the flag value "1") into the override pairs `Params::parse`
/// consumes — the one tokenizer both tools share.
std::vector<std::pair<std::string, std::string>> parse_param_overrides(
    const std::vector<std::string>& items);

/// A fully-defaulted, validated set of parameter values for one schema.
class Params {
 public:
  /// Applies `overrides` (in order) on top of the schema defaults.
  /// Throws ds::CheckError on an unknown key (message carries a
  /// did-you-mean suggestion and the known keys) or a value that does not
  /// parse as the declared type.
  static Params parse(
      const std::vector<ParamSpec>& schema,
      const std::vector<std::pair<std::string, std::string>>& overrides);

  [[nodiscard]] long long get_int(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] bool get_flag(const std::string& key) const;
  [[nodiscard]] const std::string& get(const std::string& key) const;

 private:
  const std::string& raw(const std::string& key) const;
  std::vector<std::pair<std::string, std::string>> values_;
};

/// What instance a Spec consumes.
enum class InputKind {
  kGeneralGraph,    ///< graph::Graph (edge-list files)
  kBipartiteGraph,  ///< graph::BipartiteGraph (weak-splitting instances)
};

/// Human-readable input kind ("general" / "bipartite").
std::string input_kind_name(InputKind input);

/// Which runtimes a Spec supports.
enum class Capability {
  /// Genuine message-passing program: runs on every executor (sequential,
  /// parallel, tcp) with bit-identical outputs.
  kAnyRuntime,
  /// Whole-graph sequential algorithm (global recursion, conditional
  /// expectations, ...): `execute` refuses scalable runtimes with a clear
  /// error instead of silently running them sequentially.
  kSequentialOnly,
};

/// Everything one invocation provides: the instance (exactly one of
/// `graph`/`bipartite` non-null, matching Spec::input), seed, validated
/// params, and the executor selection.
struct RunContext {
  const graph::Graph* graph = nullptr;
  const graph::BipartiteGraph* bipartite = nullptr;
  std::uint64_t seed = 1;
  Params params;
  /// Executor selection (empty = the sequential `local::Network`).
  local::ExecutorFactory factory;
  /// True iff the selected runtime is the sequential reference executor —
  /// the capability gate for kSequentialOnly specs. A caller installing a
  /// merely-instrumented sequential factory still sets this.
  bool sequential_runtime = true;
  /// Observability recorder, or null for an uninstrumented run. The
  /// factory is responsible for handing it to the executors it builds
  /// (runtime::make_executor_factory does when given the same pointer);
  /// `execute` snapshots it into `Result::metrics` after the run.
  obs::Recorder* recorder = nullptr;
};

/// What a Spec run returns.
struct Result {
  /// Canonical machine-readable outputs, bit-identical across runtimes for
  /// a fixed (instance, seed, params). Layout is spec-specific but stable
  /// (e.g. one word per node for MIS membership / colors).
  std::vector<std::uint64_t> output_words;
  std::size_t executed_rounds = 0;
  double charged_rounds = 0.0;
  /// Ordered human-readable summary (printed as "key: value" lines).
  std::vector<std::pair<std::string, std::string>> summary;
  /// Set by `execute` after the spec's verifier accepted the output.
  bool verified = false;
  /// Aggregated metrics snapshot of the run, filled by `execute` when
  /// RunContext::recorder was set (fleet-wide totals on distributed
  /// runtimes — each rank's drained block merged in). Empty otherwise.
  std::vector<obs::MetricSnapshot> metrics;

  void add(const std::string& key, const std::string& value) {
    summary.emplace_back(key, value);
  }
  void add(const std::string& key, std::uint64_t value) {
    summary.emplace_back(key, std::to_string(value));
  }

  /// FNV-1a digest of `output_words` — the one-number cross-runtime
  /// fingerprint CI diffs.
  [[nodiscard]] std::uint64_t output_digest() const;

  /// Compact one-line form "k=v k=v ... output-digest=0x...", used by the
  /// rank launcher (one line per rank) and bench tables.
  [[nodiscard]] std::string brief() const;
};

/// The pieces of an algorithm the in-situ scale path needs *unbundled*:
/// `Spec::run` drives a whole materialized instance, but a rank that only
/// holds its own node range needs the bare program factory, the per-node
/// output hook, and a node-local verifier it can apply with nothing beyond
/// its own range plus halo values. Specs that support the scale path attach
/// one of these to `Spec::insitu`.
struct InsituHooks {
  /// The per-node program factory for the given validated params and seed.
  /// Must be *pure per node* — bit-identical regardless of which other
  /// nodes' environments the calling rank constructs (the in-situ runner
  /// only constructs its own range). May DS_CHECK params it cannot honor
  /// in-situ (e.g. a non-sequential ID strategy).
  std::function<local::ProgramFactory(const Params&, std::uint64_t)>
      make_factory;
  /// Output hook writing *exactly one word* per node — the scale path's
  /// streamed-digest and halo-exchange layout depends on fixed-width rows.
  local::OutputFn output;
  /// Round budget for the given params.
  std::function<std::size_t(const Params&)> max_rounds;
  /// Node-local verification: `value` is node v's output word, `neighbors`
  /// its adjacency row, `value_of` resolves any neighbor's word (own range
  /// or halo). Throws ds::CheckError on a violated constraint.
  std::function<void(graph::NodeId, std::uint64_t, const graph::NodeId*,
                     std::size_t,
                     const std::function<std::uint64_t(graph::NodeId)>&)>
      verify_node;
  /// Summary lines from the fleet-wide output-word sum and round count —
  /// must reproduce `Spec::run`'s summary so `brief()` lines diff cleanly.
  std::function<std::vector<std::pair<std::string, std::string>>(
      std::uint64_t, std::size_t)>
      summarize;
};

/// One registered algorithm.
struct Spec {
  std::string name;         ///< stable registry key (CLI --algo=<name>)
  std::string description;  ///< one line for catalogs and usage text
  InputKind input = InputKind::kGeneralGraph;
  Capability capability = Capability::kAnyRuntime;
  std::vector<ParamSpec> params;
  /// Name of the verifier `run` applies before returning (for the catalog).
  std::string verifier;
  /// Entry point: runs the algorithm on ctx.factory, gathers results
  /// through the executor output contract, verifies them (throws on an
  /// invalid output), and fills Result. `execute` wraps this with the
  /// capability gate; call that, not `run`, from drivers.
  std::function<Result(const RunContext&)> run;
  /// In-situ scale-path hooks; null when the spec cannot run without the
  /// materialized instance.
  std::shared_ptr<const InsituHooks> insitu;
};

}  // namespace ds::algo
