#include "runtime/select.hpp"

#include "dist/distributed_network.hpp"
#include "local/network.hpp"
#include "support/check.hpp"

namespace ds::runtime {

namespace {

std::unique_ptr<local::Executor> build_executor(const RuntimeConfig& config,
                                                const graph::Graph& g,
                                                local::IdStrategy strategy,
                                                std::uint64_t seed) {
  if (config.kind == RuntimeKind::kSequential) {
    return std::make_unique<local::Network>(g, strategy, seed);
  }
  const bool threads = config.kind == RuntimeKind::kParallel;
  dist::DistributedConfig dconfig;
  dconfig.workers = threads ? config.threads : config.workers;
  dconfig.spawn =
      threads ? dist::RankSpawn::kThread : dist::RankSpawn::kProcess;
  if (config.halo_words != 0) {
    dconfig.halo_words_per_port = config.halo_words;
  }
  if (config.gather_words != 0) {
    dconfig.gather_words_per_node = config.gather_words;
  }
  return std::make_unique<dist::DistributedNetwork>(g, strategy, seed,
                                                    dconfig);
}

/// `--key=N` as a count, N >= 0 (0 when absent: the executor's default).
std::size_t count_flag(const Options& opts, const std::string& key) {
  const long long n = opts.get_int(key, 0);
  DS_CHECK_MSG(n >= 0, "--" + key + " must be >= 0");
  return static_cast<std::size_t>(n);
}

}  // namespace

RuntimeConfig runtime_from_options(const Options& opts) {
  RuntimeConfig config;
  const std::string name = opts.get("runtime", "sequential");
  if (name == "parallel") {
    config.kind = RuntimeKind::kParallel;
  } else if (name == "mp") {
    config.kind = RuntimeKind::kMultiProcess;
  } else {
    DS_CHECK_MSG(name == "sequential",
                 "--runtime must be 'sequential', 'parallel' (thread ranks) "
                 "or 'mp' (forked ranks); TCP fleets run through "
                 "distsplit_rank --hosts=FILE --rank=R or --local=N");
  }
  config.threads = count_flag(opts, "threads");
  config.workers = count_flag(opts, "workers");
  config.halo_words = count_flag(opts, "halo-words");
  config.gather_words = count_flag(opts, "gather-words");
  return config;
}

local::ExecutorFactory make_executor_factory(const RuntimeConfig& config,
                                             local::RoundStatsSink sink,
                                             obs::Recorder* recorder) {
  if (config.kind == RuntimeKind::kSequential && !sink &&
      recorder == nullptr) {
    return {};
  }
  return [config, sink = std::move(sink), recorder](
             const graph::Graph& g, local::IdStrategy strategy,
             std::uint64_t seed) -> std::unique_ptr<local::Executor> {
    auto exec = build_executor(config, g, strategy, seed);
    if (sink) exec->set_stats_sink(sink);
    if (recorder != nullptr) exec->set_recorder(recorder);
    return exec;
  };
}

std::string runtime_description(const RuntimeConfig& config) {
  switch (config.kind) {
    case RuntimeKind::kParallel:
      return "parallel(" +
             std::to_string(
                 dist::DistributedNetwork::resolve_workers(config.threads)) +
             " threads)";
    case RuntimeKind::kMultiProcess:
      return "mp(" +
             std::to_string(
                 dist::DistributedNetwork::resolve_workers(config.workers)) +
             " workers)";
    case RuntimeKind::kSequential:
      break;
  }
  return "sequential";
}

}  // namespace ds::runtime
