#pragma once

/// \file select.hpp
/// Runtime selection of the single-host LOCAL-model executor for
/// experiment binaries: `--runtime=sequential|parallel` and `--threads=N`
/// map to an `local::ExecutorFactory` that algorithm entry points accept.
/// `parallel` is `dist::DistributedNetwork` — N thread ranks running the
/// shared rank loop over the in-process transport. TCP fleets are launched
/// by `distsplit_rank`, one process per rank, not selected here.

#include <cstddef>
#include <string>

#include "local/executor.hpp"
#include "local/round_stats.hpp"
#include "support/options.hpp"

namespace ds::runtime {

/// The selectable LOCAL executors.
enum class RuntimeKind {
  kSequential,  ///< local::Network (the reference implementation)
  kParallel,    ///< dist::DistributedNetwork, thread ranks
};

/// Executor choice of one binary invocation.
struct RuntimeConfig {
  RuntimeKind kind = RuntimeKind::kSequential;
  std::size_t threads = 0;  ///< 0 = hardware concurrency (parallel only)
};

/// Usage help for the flags `runtime_from_options` understands, printed by
/// `distsplit_cli` so its usage text cannot drift from the parser.
inline constexpr const char* kRuntimeFlagsHelp =
    "[--runtime=sequential|parallel] [--threads=N]";

/// True when `config` selects the sequential reference executor — the
/// capability gate sequential-only registry specs check.
inline bool is_sequential(const RuntimeConfig& config) {
  return config.kind == RuntimeKind::kSequential;
}

/// Parses `--runtime=sequential|parallel` (default sequential) and
/// `--threads=N`. Throws ds::CheckError on an unknown runtime name (its
/// message names `parallel` and the TCP launcher `distsplit_rank`) or a
/// negative count.
RuntimeConfig runtime_from_options(const Options& opts);

/// Factory honoring `config`. Every executor it builds gets `sink` as its
/// per-round stats hook and `recorder` installed (phase timings, round and
/// transport counters; fleet-wide on parallel). Only the sequential
/// runtime with neither yields an empty factory (algorithms then default to
/// `local::Network`). The recorder must outlive every executor built.
local::ExecutorFactory make_executor_factory(
    const RuntimeConfig& config, local::RoundStatsSink sink = {},
    obs::Recorder* recorder = nullptr);

/// Human-readable description of the *requested* config, e.g. "sequential"
/// or "parallel(8 threads)". The executor additionally
/// clamps its rank count to each instance's node count — use
/// `dist::DistributedNetwork::resolve_workers(count, n)` when reporting
/// per-instance numbers.
std::string runtime_description(const RuntimeConfig& config);

}  // namespace ds::runtime
