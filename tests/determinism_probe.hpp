#pragma once

/// \file determinism_probe.hpp
/// The shared cross-executor determinism probe: a program with staggered
/// halting, per-node randomness, and a mix of empty and non-empty messages —
/// sensitive to any delivery, ordering, or stale-slot bug in an executor.
/// The digest is the full per-node history. Used by tests/test_runtime.cpp
/// and tests/test_dist.cpp (thread ranks) and tests/test_net_tcp.cpp (TCP
/// executor) so the suites cannot drift apart. `probe_run` records one
/// run's whole observable result, for the executor-reuse tests.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "local/executor.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "support/rng.hpp"

namespace ds::probes {

class ProbeBase : public local::NodeProgram {
 public:
  explicit ProbeBase(const local::NodeEnv& env)
      : env_(env), limit_(2 + env.uid % 5), state_(env.uid) {}

  [[nodiscard]] bool done() const override { return halted_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 protected:
  // Some ports deliberately stay silent some rounds.
  [[nodiscard]] bool silent(std::size_t round, std::size_t p) const {
    return (env_.uid + round + p) % 3 == 0;
  }
  [[nodiscard]] std::uint64_t word(std::size_t round, std::size_t i) const {
    return i == 0 ? state_
                  : (i == 1 ? env_.uid ^ (round * 0x9E37ull) : 0);
  }
  void absorb(std::size_t p, std::uint64_t w) {
    state_ = splitmix64(state_ ^ w ^ (p * 31));
  }
  void finish_round(std::size_t round) {
    state_ ^= env_.rng.next_raw();
    digest_ = splitmix64(digest_ ^ state_ ^ round);
    if (round + 1 >= limit_) halted_ = true;
  }

  local::NodeEnv env_;

 private:
  std::size_t limit_;
  std::uint64_t state_;
  std::uint64_t digest_ = 0x1234u;
  bool halted_ = false;
};

class WriterProbe final : public ProbeBase {
 public:
  using ProbeBase::ProbeBase;

  void send(std::size_t round, local::Outbox& out) override {
    for (std::size_t p = 0; p < env_.degree; ++p) {
      if (silent(round, p)) continue;
      out.write(p, {word(round, 0), word(round, 1),
                    static_cast<std::uint64_t>(p)});
    }
  }

  void receive(std::size_t round, const local::Inbox& inbox) override {
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      for (std::uint64_t w : inbox[p]) absorb(p, w);
    }
    finish_round(round);
  }
};

inline local::ProgramFactory probe_factory() {
  return [](const local::NodeEnv& env) -> std::unique_ptr<local::NodeProgram> {
    return std::make_unique<WriterProbe>(env);
  };
}

/// The identities the executor-reuse tests run one executor through, in
/// order: every `IdStrategy`, each with its own seed.
inline const std::vector<std::pair<local::IdStrategy, std::uint64_t>>
    kReuseIdentities = {{local::IdStrategy::kRandomPermutation, 11},
                        {local::IdStrategy::kSequential, 3},
                        {local::IdStrategy::kDegreeDescending, 29}};

/// Everything deterministic one probe run shows: per-node digests, the
/// round count and the per-round stats (wall times left out).
struct ProbeRun {
  std::vector<std::uint64_t> digests;
  std::size_t rounds = 0;
  std::vector<local::RoundStats> stats;

  bool operator==(const ProbeRun& o) const {
    if (digests != o.digests || rounds != o.rounds ||
        stats.size() != o.stats.size()) {
      return false;
    }
    for (std::size_t r = 0; r < stats.size(); ++r) {
      if (stats[r].round != o.stats[r].round ||
          stats[r].live_nodes != o.stats[r].live_nodes ||
          stats[r].messages != o.stats[r].messages ||
          stats[r].payload_words != o.stats[r].payload_words) {
        return false;
      }
    }
    return true;
  }
};

/// Runs the probe once on `exec` with identity (ids, seed).
inline ProbeRun probe_run(local::Executor& exec, local::IdStrategy ids,
                          std::uint64_t seed) {
  ProbeRun run;
  exec.set_output_fn([](graph::NodeId, const local::NodeProgram& p,
                        std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const ProbeBase&>(p).digest());
  });
  exec.set_stats_sink(
      [&run](const local::RoundStats& s) { run.stats.push_back(s); });
  run.rounds = exec.run(probe_factory(), ids, seed, 100);
  exec.set_stats_sink({});
  run.digests.resize(exec.graph().num_nodes());
  for (graph::NodeId v = 0; v < run.digests.size(); ++v) {
    run.digests[v] = exec.outputs().value(v);
  }
  return run;
}

}  // namespace ds::probes
