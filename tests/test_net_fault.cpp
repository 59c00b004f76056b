// Fault injection for the TCP runtime: SIGKILL one rank of a loopback
// fleet mid-round and assert the surviving ranks abort collectively —
// promptly, with nonzero exits, instead of hanging at an exchange that the
// dead rank will never join. (The shm runtime's equivalent is the parent's
// waitpid poll; on TCP the signal is the broken connection itself, plus the
// kAbort frames the survivors forward to each other.) A peer that sends a
// malformed halo frame must fail the fleet just as loudly.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "local/program.hpp"
#include "net/frame.hpp"
#include "net/loopback.hpp"
#include "net/rendezvous.hpp"
#include "net/tcp_network.hpp"
#include "support/check.hpp"

namespace ds::net {
namespace {

// A program slow enough that the kill lands mid-run: every node sleeps a
// little in its send phase and the run would last thousands of rounds.
class SlowGossip final : public local::NodeProgram {
 public:
  explicit SlowGossip(const local::NodeEnv& env) : env_(env) {}

  void send(std::size_t, local::Outbox& out) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t p = 0; p < env_.degree; ++p) {
      out.write(p, {env_.uid, static_cast<std::uint64_t>(p)});
    }
  }

  void receive(std::size_t round, const local::Inbox&) override {
    if (round + 1 >= 2000) done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }

 private:
  local::NodeEnv env_;
  bool done_ = false;
};

TEST(TcpFault, KilledRankAbortsTheFleetWithoutHanging) {
  const auto g = graph::gen::cycle(6);
  const auto factory = local::programs<SlowGossip>(
      [](const local::NodeEnv& env) { return SlowGossip(env); });

  const auto t0 = std::chrono::steady_clock::now();
  std::thread killer;
  const LoopbackReport report = run_loopback_ranks(
      3,
      [&](LoopbackRank&& lr) -> int {
        TcpOptions opts;
        opts.handshake_timeout_ms = 20000;
        opts.round_timeout_ms = 30000;
        TcpTransport transport(lr.rank, lr.hosts, {}, opts,
                               std::move(lr.listen));
        TcpNetwork net(g, transport);
        try {
          net.run(factory, {}, local::IdStrategy::kSequential, 4, 10000);
          return 1;  // the run must NOT complete
        } catch (const ds::CheckError&) {
          return 5;  // collective abort observed
        }
      },
      [&](const std::vector<pid_t>& children) {
        // children[0] is rank 1; kill it once the fleet is deep in its
        // round loop (the rendezvous itself is fast on loopback).
        ASSERT_EQ(children.size(), 2u);
        const pid_t victim = children[0];
        killer = std::thread([victim] {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          ::kill(victim, SIGKILL);
        });
      });
  if (killer.joinable()) killer.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Rank 0 (this process) saw the abort as an exception...
  EXPECT_EQ(report.rank0, 5);
  ASSERT_EQ(report.peer_exit_codes.size(), 2u);
  // ...the victim died by SIGKILL (128 + 9), and the third rank aborted on
  // its own (exit 3: the loopback harness maps an escaped CheckError to 3,
  // or 5 if its body caught it first — both prove a nonzero, prompt exit).
  EXPECT_EQ(report.peer_exit_codes[0], 128 + SIGKILL);
  EXPECT_NE(report.peer_exit_codes[1], 0);
  // "Within the timeout": the survivors must notice via the broken
  // connections (EOF/reset) immediately — far below the 30 s round budget,
  // let alone the ctest timeout.
  EXPECT_LT(elapsed, 20.0);
}

TEST(TcpFault, MalformedHaloFrameFailsTheFleet) {
  // Rank 1 is a fake built from the wire primitives: it answers rank 0's two
  // kLive collectives (the observability agreement and the pre-round
  // liveness sync), then sends a round-0 kHalo frame whose presence bitmap
  // is cut short. Rank 0 must throw instead of patching past the frame or
  // waiting out the round timeout, and must forward the abort to rank 1.
  const auto g = graph::gen::cycle(8);  // ranges [0,4) and [4,8): 2 cut ports
  const auto factory = local::programs<SlowGossip>(
      [](const local::NodeEnv& env) { return SlowGossip(env); });
  std::string error;
  const auto t0 = std::chrono::steady_clock::now();
  const LoopbackReport report = run_loopback_ranks(
      2, [&](LoopbackRank&& lr) -> int {
        if (lr.rank == 0) {
          TcpOptions opts;
          opts.handshake_timeout_ms = 20000;
          opts.round_timeout_ms = 30000;
          TcpTransport transport(lr.rank, lr.hosts, {}, opts,
                                 std::move(lr.listen));
          TcpNetwork net(g, transport);
          try {
            net.run(factory, {}, local::IdStrategy::kSequential, 4, 10000);
            return 1;  // the run must NOT complete
          } catch (const ds::CheckError& e) {
            error = e.what();
            return 5;
          }
        }
        Handshake mine;
        mine.version = kProtocolVersion;
        mine.rank = 1;
        mine.ranks = 2;
        std::vector<Socket> conns =
            rendezvous(mine, lr.hosts, lr.listen, 20000);
        const int fd = conns[0].fd();
        set_io_timeouts(fd, 20000);
        for (std::uint64_t seq = 1; seq <= 2; ++seq) {
          if (read_frame(fd, "fake rank").header.type !=
              static_cast<std::uint32_t>(FrameType::kLive)) {
            return 10;
          }
          const std::uint64_t not_done = 0;
          write_frame(fd, FrameType::kLive, seq, &not_done, 1, "fake rank");
        }
        // Stats triple and mode 0, but not the one bitmap word of 2 ports.
        const std::uint64_t halo[] = {0, 0, 0, 0};
        write_frame(fd, FrameType::kHalo, 3, halo, 4, "fake rank");
        if (read_frame(fd, "fake rank").header.type !=
            static_cast<std::uint32_t>(FrameType::kHalo)) {
          return 11;
        }
        const Frame last = read_frame(fd, "fake rank");
        return last.header.type ==
                       static_cast<std::uint32_t>(FrameType::kAbort)
                   ? 0
                   : 12;
      });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(report.rank0, 5);
  EXPECT_NE(error.find("malformed halo frame"), std::string::npos) << error;
  ASSERT_EQ(report.peer_exit_codes.size(), 1u);
  EXPECT_EQ(report.peer_exit_codes[0], 0);
  EXPECT_LT(elapsed, 10.0);  // far inside the 30 s round timeout
}

}  // namespace
}  // namespace ds::net
