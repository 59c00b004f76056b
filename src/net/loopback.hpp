#pragma once

/// \file loopback.hpp
/// Spawn-all-ranks helper for tests, benchmarks and single-host smoke runs
/// of the TCP runtime: pre-binds one ephemeral 127.0.0.1 listen socket per
/// rank (collision-free — the kernel picks the ports, and the sockets are
/// inherited through fork so no rank can lose a bind race), forks ranks
/// 1..N-1, and runs rank 0's body in the calling process — mirroring the
/// `DistributedNetwork` convention that the caller is worker 0, so a test
/// can capture rank 0's results in lambda captures.
///
/// The child bodies run under a catch-all (a ds::CheckError — e.g. a
/// collective abort — becomes exit code 3) and leave via _exit, skipping
/// atexit/stdio teardown so nothing the parent buffered is flushed twice.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "net/socket.hpp"

namespace ds::net {

/// What one rank's body receives: its identity, the fleet's address book,
/// and its pre-bound listen socket (move it into the rank's
/// `TcpTransport`, which closes it once the mesh is up).
struct LoopbackRank {
  std::size_t rank = 0;
  std::vector<Endpoint> hosts;
  Socket listen;
};

/// Outcome of a loopback fleet run.
struct LoopbackReport {
  /// Rank 0's body return value.
  int rank0 = 0;
  /// Exit codes of ranks 1..N-1 (in rank order): the body's return value,
  /// 3 for an escaped exception, 128 + signal for a killed rank.
  std::vector<int> peer_exit_codes;

  /// True when every rank (including rank 0) returned 0.
  [[nodiscard]] bool all_ok() const {
    if (rank0 != 0) return false;
    for (const int code : peer_exit_codes) {
      if (code != 0) return false;
    }
    return true;
  }
};

/// Runs `body` on a fleet of `ranks` loopback ranks: forked children for
/// ranks 1..N-1, the calling process for rank 0. `after_fork`, if set, runs
/// in the parent right after the fleet is up, with the children's PIDs in
/// rank order (ranks 1..N-1) — fault-injection tests use it to SIGKILL a
/// rank mid-run. If rank 0's body throws, the children are killed, reaped,
/// and the exception rethrown.
LoopbackReport run_loopback_ranks(
    std::size_t ranks, const std::function<int(LoopbackRank&&)>& body,
    const std::function<void(const std::vector<pid_t>&)>& after_fork = {});

}  // namespace ds::net
