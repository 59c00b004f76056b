#pragma once

/// \file select.hpp
/// Runtime selection of the single-host LOCAL-model executor for
/// experiment binaries: `--runtime=sequential|parallel|mp`, `--threads=N`
/// (parallel) and `--workers=N` (mp) map to an `local::ExecutorFactory`
/// that algorithm entry points accept. `parallel` and `mp` are the same
/// `dist::DistributedNetwork` — N ranks running the shared rank loop over
/// the shared-memory transport — with thread ranks or forked ranks. TCP
/// fleets are launched by `distsplit_rank`, one process per rank, not
/// selected here.

#include <cstddef>
#include <string>

#include "local/executor.hpp"
#include "local/round_stats.hpp"
#include "support/options.hpp"

namespace ds::runtime {

/// The selectable LOCAL executors.
enum class RuntimeKind {
  kSequential,    ///< local::Network (the reference implementation)
  kParallel,      ///< dist::DistributedNetwork, thread ranks
  kMultiProcess,  ///< dist::DistributedNetwork, forked ranks
};

/// Executor choice of one binary invocation.
struct RuntimeConfig {
  RuntimeKind kind = RuntimeKind::kSequential;
  std::size_t threads = 0;  ///< 0 = hardware concurrency (parallel only)
  std::size_t workers = 0;  ///< 0 = hardware concurrency (mp only)
  /// parallel/mp transport reservations; 0 = the DistributedConfig
  /// defaults. Raise when a run aborts with a halo/gather overflow naming
  /// these knobs.
  std::size_t halo_words = 0;
  std::size_t gather_words = 0;
};

/// Usage help for the flags `runtime_from_options` understands, printed by
/// `distsplit_cli` so its usage text cannot drift from the parser.
inline constexpr const char* kRuntimeFlagsHelp =
    "[--runtime=sequential|parallel|mp] [--threads=N] [--workers=N]\n"
    "  [--halo-words=N] [--gather-words=N]";

/// True when `config` selects the sequential reference executor — the
/// capability gate sequential-only registry specs check.
inline bool is_sequential(const RuntimeConfig& config) {
  return config.kind == RuntimeKind::kSequential;
}

/// Parses `--runtime=sequential|parallel|mp` (default sequential),
/// `--threads=N`, `--workers=N` and the transport overflow knobs
/// `--halo-words=N` / `--gather-words=N`. Throws ds::CheckError on an
/// unknown runtime name or a negative count.
RuntimeConfig runtime_from_options(const Options& opts);

/// Factory honoring `config`. Every executor it builds gets `sink` as its
/// per-round stats hook and `recorder` installed (phase timings, round and
/// transport counters; fleet-wide on parallel and mp). Only the sequential
/// runtime with neither yields an empty factory (algorithms then default to
/// `local::Network`). The recorder must outlive every executor built.
local::ExecutorFactory make_executor_factory(
    const RuntimeConfig& config, local::RoundStatsSink sink = {},
    obs::Recorder* recorder = nullptr);

/// Human-readable description of the *requested* config, e.g. "sequential",
/// "parallel(8 threads)" or "mp(4 workers)". The executor additionally
/// clamps its rank count to each instance's node count — use
/// `dist::DistributedNetwork::resolve_workers(count, n)` when reporting
/// per-instance numbers.
std::string runtime_description(const RuntimeConfig& config);

}  // namespace ds::runtime
