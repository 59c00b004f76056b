#include "runtime/select.hpp"

#include "dist/distributed_network.hpp"
#include "local/network.hpp"
#include "support/check.hpp"

namespace ds::runtime {

namespace {

std::shared_ptr<local::Executor> build_executor(const RuntimeConfig& config,
                                                const graph::Graph& g) {
  if (config.kind == RuntimeKind::kSequential) {
    return std::make_shared<local::Network>(g);
  }
  return std::make_shared<dist::DistributedNetwork>(
      g, dist::DistributedConfig{config.threads});
}

}  // namespace

RuntimeConfig runtime_from_options(const Options& opts) {
  RuntimeConfig config;
  const std::string name = opts.get("runtime", "sequential");
  if (name == "parallel") {
    config.kind = RuntimeKind::kParallel;
  } else {
    DS_CHECK_MSG(name == "sequential",
                 "--runtime must be 'sequential' or 'parallel' (thread "
                 "ranks, --threads=N); process-per-rank fleets run over TCP "
                 "through distsplit_rank --local=N or --hosts=FILE --rank=R");
  }
  // 0 when absent: the executor's default (hardware concurrency).
  const long long threads = opts.get_int("threads", 0);
  DS_CHECK_MSG(threads >= 0, "--threads must be >= 0");
  config.threads = static_cast<std::size_t>(threads);
  return config;
}

local::ExecutorFactory make_executor_factory(const RuntimeConfig& config,
                                             local::RoundStatsSink sink,
                                             obs::Recorder* recorder) {
  if (config.kind == RuntimeKind::kSequential && !sink &&
      recorder == nullptr) {
    return {};
  }
  return [config, sink = std::move(sink),
          recorder](const graph::Graph& g) {
    auto exec = build_executor(config, g);
    if (sink) exec->set_stats_sink(sink);
    if (recorder != nullptr) exec->set_recorder(recorder);
    return exec;
  };
}

std::string runtime_description(const RuntimeConfig& config) {
  if (is_sequential(config)) return "sequential";
  return "parallel(" +
         std::to_string(
             dist::DistributedNetwork::resolve_workers(config.threads)) +
         " threads)";
}

}  // namespace ds::runtime
