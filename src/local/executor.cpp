#include "local/executor.hpp"

namespace ds::local {

void Executor::collect_outputs_from_programs(const ProgramBlock& programs) {
  if (!output_fn_) {
    outputs_.clear();
    return;
  }
  const std::size_t n = programs.size();
  outputs_.start(n);
  std::vector<std::uint64_t> row;
  for (graph::NodeId v = 0; v < n; ++v) {
    row.clear();
    output_fn_(v, programs.at(v), row);
    outputs_.append_row(row.data(), row.size());
  }
}

}  // namespace ds::local
