#pragma once

/// \file lifetime_probe.hpp
/// The probe of the executors' program-lifetime contract: every program a
/// run builds is destroyed exactly once, on the thread of the rank that
/// built it, before `run()` returns or throws. `Mortal` logs the thread
/// that builds it and the one that destroys it into a shared `Lifetimes`.
/// A program block moves each `Mortal` in from `make`'s return value, so a
/// moved-from `Mortal` logs nothing. Used by tests/test_local.cpp,
/// tests/test_dist.cpp and tests/test_net_tcp.cpp.

#include <cstddef>
#include <map>
#include <mutex>
#include <thread>

#include "graph/graph.hpp"
#include "local/program.hpp"
#include "support/check.hpp"

namespace ds::probes {

/// Per node, the thread that built its program and the one that destroyed
/// it; `repeats` counts builds or destructions logged twice for one node.
struct Lifetimes {
  std::mutex mu;
  std::map<graph::NodeId, std::thread::id> built_on;
  std::map<graph::NodeId, std::thread::id> destroyed_on;
  std::size_t repeats = 0;

  void log(std::map<graph::NodeId, std::thread::id>& to, graph::NodeId v) {
    const std::lock_guard<std::mutex> lock(mu);
    if (!to.emplace(v, std::this_thread::get_id()).second) ++repeats;
  }
};

/// A program that halts after one round; the `fails` one throws in
/// `receive` instead.
class Mortal final : public local::NodeProgram {
 public:
  Mortal(const local::NodeEnv& env, Lifetimes& log, bool fails)
      : node_(env.node), log_(&log), fails_(fails) {
    log.log(log.built_on, node_);
  }
  Mortal(Mortal&& other) noexcept
      : node_(other.node_),
        log_(other.log_),
        fails_(other.fails_),
        done_(other.done_) {
    other.log_ = nullptr;
  }
  Mortal& operator=(Mortal&&) = delete;
  ~Mortal() override {
    if (log_ != nullptr) log_->log(log_->destroyed_on, node_);
  }

  void send(std::size_t, local::Outbox&) override {}
  void receive(std::size_t, const local::Inbox&) override {
    DS_CHECK_MSG(!fails_, "receive boom");
    done_ = true;
  }
  [[nodiscard]] bool done() const override { return done_; }

 private:
  graph::NodeId node_;
  Lifetimes* log_;
  bool fails_;
  bool done_ = false;
};

/// Mortal programs logging into `log`; node `victim`'s throws in `receive`.
inline local::ProgramFactory mortal_factory(
    Lifetimes& log, graph::NodeId victim = static_cast<graph::NodeId>(-1)) {
  return local::programs<Mortal>([&log, victim](const local::NodeEnv& env) {
    return Mortal(env, log, env.node == victim);
  });
}

}  // namespace ds::probes
