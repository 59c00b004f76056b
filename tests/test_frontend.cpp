// Tests for the tools' shared front end (tools/frontend.hpp): the unknown-
// flag check, the exactly-one instance source, the bipartite split check,
// the structural check on a `.dsg` file, the range checks on numeric
// flags, and the loopback fleet launch's failed-rank report.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "frontend.hpp"
#include "graph/format.hpp"
#include "graph/insitu.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

namespace ds::frontend {
namespace {

/// Options from `--flag` strings (argv[0] is added).
Options opts_of(std::initializer_list<const char*> flags) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

/// The ds::CheckError message `fn` throws, or "" when it returns.
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(FrontendFlags, UnknownFlagGetsDidYouMean) {
  const std::string err = error_of([] {
    check_flags(opts_of({"--algo=mis", "--sed=3"}), {"algo", "seed"});
  });
  EXPECT_TRUE(contains(err, "unknown flag '--sed'; did you mean '--seed'?"))
      << err;
  EXPECT_TRUE(contains(err, "--param=key=value")) << err;
  // A retired flag no spelling distance reaches points at its replacement.
  const std::string retired = error_of([] {
    check_flags(opts_of({"--workers=4"}), {"algo", "threads"}, kParamsNote,
                {{"workers", "threads"}});
  });
  EXPECT_TRUE(contains(retired,
                       "unknown flag '--workers'; did you mean '--threads'?"))
      << retired;
  EXPECT_EQ(error_of([] {
              check_flags(opts_of({"--algo=mis", "--seed=3"}),
                          {"algo", "seed"});
            }),
            "");
}

TEST(FrontendSource, ExactlyOneSource) {
  for (const auto& flags :
       {opts_of({}), opts_of({"--input=a.txt", "--gen=torus:w=4,h=4"}),
        opts_of({"--graph=a.dsg", "--gen=torus:w=4,h=4"})}) {
    const std::string err = error_of([&] { (void)instance_source(flags); });
    EXPECT_TRUE(contains(err, "exactly one of --input=FILE, "
                              "--graph=FILE.dsg or --gen=SPEC"))
        << err;
    EXPECT_EQ(err, error_of([&] {
                (void)load_instance(flags, algo::InputKind::kGeneralGraph,
                                    "x");
              }));
  }
  EXPECT_EQ(instance_source(opts_of({"--gen=torus:w=4,h=4"})), Source::kGen);
  EXPECT_EQ(instance_source(opts_of({"--graph=a.dsg"})), Source::kGraph);
}

TEST(FrontendSource, BipartiteSpecNeedsASplit) {
  const Options torus = opts_of({"--gen=torus:w=4,h=4"});
  const std::string err = error_of([&] {
    (void)load_instance(torus, algo::InputKind::kBipartiteGraph,
                        "--algo=split");
  });
  EXPECT_TRUE(contains(err,
                       "--algo=split needs a bipartite instance, but this "
                       "source carries no left/right split"))
      << err;
  const Instance general =
      load_instance(torus, algo::InputKind::kGeneralGraph, "--algo=mis");
  EXPECT_EQ(general.graph.num_nodes(), 16u);
  EXPECT_EQ(general.nu, 0u);
}

TEST(FrontendSource, InputFileKeepsItsForm) {
  const std::string path = ::testing::TempDir() + "/frontend_bip.txt";
  {
    std::ofstream out(path);
    out << "2 1 2\n0 0\n1 0\n";  // nu nv m, then left-right edges
  }
  const std::string input = "--input=" + path;
  const Instance inst = load_instance(
      opts_of({input.c_str()}), algo::InputKind::kBipartiteGraph,
      "--algo=split");
  EXPECT_EQ(inst.bipartite.num_left(), 2u);
  EXPECT_EQ(inst.bipartite.num_right(), 1u);
}

TEST(FrontendSource, BipartiteInstanceIsOneImage) {
  // Whatever the source, `graph` is the bipartite view's unified image and
  // `nu` its left size: nothing is held twice.
  const std::string path = ::testing::TempDir() + "/frontend_one_image.txt";
  {
    std::ofstream out(path);
    out << "2 1 2\n0 0\n1 0\n";
  }
  const std::string input = "--input=" + path;
  const char* gen = "--gen=biregular:nu=8,nv=16,delta=4";
  for (const Options& opts : {opts_of({input.c_str()}), opts_of({gen})}) {
    const Instance inst =
        load_instance(opts, algo::InputKind::kBipartiteGraph, "--algo=split");
    EXPECT_EQ(inst.nu, inst.bipartite.num_left());
    EXPECT_EQ(inst.graph.offsets().data(),
              inst.bipartite.unified().offsets().data());
  }
}

TEST(FrontendSource, GraphFileMustPassTheStructuralCheck) {
  const std::string path = ::testing::TempDir() + "/frontend_interior.dsg";
  const graph::DistributedGenerator dg(
      graph::GenSpec::parse("torus:w=8,h=8"), 7);
  graph::write_dsg(dg.generate_full(), path, 0, dg.seed());
  const std::string flag = "--graph=" + path;
  const auto load = [&] {
    (void)load_instance(opts_of({flag.c_str()}),
                        algo::InputKind::kGeneralGraph, "--algo=mis");
  };
  EXPECT_NO_THROW(load());
  // The first edge-list entry (byte 64 + 8(n + 1) + 8m) set far past n:
  // the header, the size and offsets[n] == 2m still check out.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(64 + 8 * 65 + 8 * 128);
    const std::uint32_t far = 0x7FFFFFF0;
    file.write(reinterpret_cast<const char*>(&far), sizeof(far));
  }
  EXPECT_THROW(load(), graph::FormatError);
}

TEST(FrontendNumbers, MalformedNumbersNameTheFlag) {
  // Trailing junk and non-numbers used to parse as a prefix or die with a
  // bare "stoll".
  EXPECT_TRUE(contains(error_of([] { (void)opts_of({"--seed=7x"}).seed(); }),
                       "--seed=7x"));
  EXPECT_TRUE(contains(error_of([] {
                         (void)ObsFlags(opts_of({"--http-port=abc"}), 0);
                       }),
                       "--http-port=abc"));
  EXPECT_TRUE(contains(error_of([] {
                         (void)opts_of({"--seed=99999999999999999999"})
                             .seed();
                       }),
                       "--seed="));
}

TEST(FrontendNumbers, PortsAreRangeChecked) {
  // 70000 and -65535 used to wrap to ports 4464 and 1.
  for (const char* flag : {"--http-port=70000", "--http-port=-65535",
                           "--http-port=-1"}) {
    const std::string err =
        error_of([&] { (void)ObsFlags(opts_of({flag}), 0); });
    EXPECT_TRUE(contains(err, "--http-port=")) << flag << ": " << err;
    EXPECT_TRUE(contains(err, "out of range")) << flag << ": " << err;
  }
  EXPECT_TRUE(contains(error_of([] {
                         (void)port_flag(opts_of({"--port=65536"}), "port");
                       }),
                       "--port=65536"));
  // Rank r binds P + r: the top port fits one rank, not two.
  EXPECT_EQ(ObsFlags(opts_of({"--http-port=65535"}), 0).http_port, 65535);
  EXPECT_TRUE(contains(error_of([] {
                         (void)ObsFlags(opts_of({"--http-port=65535"}), 1);
                       }),
                       "--http-port=65535"));
  EXPECT_EQ(ObsFlags(opts_of({"--http-port=65534"}), 1).http_port, 65534);
  // P = 0 asks the kernel on every rank.
  EXPECT_EQ(ObsFlags(opts_of({"--http-port=0"}), 1000).http_port, 0);
  EXPECT_FALSE(ObsFlags(opts_of({}), 0).http_port.has_value());
  EXPECT_FALSE(ObsFlags(opts_of({}), 0).observe());
}

TEST(FrontendNumbers, CapacitiesAreAtLeastOne) {
  // -1 used to wrap to SIZE_MAX: an unbounded queue or trace ring.
  for (const char* flag : {"--queue-cap=-1", "--queue-cap=0"}) {
    const std::string err = error_of(
        [&] { (void)capacity_flag(opts_of({flag}), "queue-cap", 16); });
    EXPECT_TRUE(contains(err, "--queue-cap=")) << err;
    EXPECT_TRUE(contains(err, ">= 1")) << err;
  }
  EXPECT_TRUE(contains(error_of([] {
                         (void)ObsFlags(opts_of({"--event-cap=-1"}), 0);
                       }),
                       "--event-cap=-1"));
  EXPECT_EQ(capacity_flag(opts_of({}), "queue-cap", 16), 16u);
  EXPECT_EQ(ObsFlags(opts_of({"--event-cap=5"}), 0).event_cap, 5u);
}

TEST(FrontendFleet, ParsesTheLaunchFlags) {
  EXPECT_FALSE(fleet_from_options(opts_of({})).has_value());
  const std::optional<Fleet> local = fleet_from_options(opts_of({"--local=4"}));
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->max_rank(), 3u);
  const std::string path = ::testing::TempDir() + "/frontend_hosts.txt";
  {
    std::ofstream out(path);
    out << "127.0.0.1 7001\n127.0.0.1 7002\n";
  }
  const std::string hosts = "--hosts=" + path;
  const std::optional<Fleet> rank1 =
      fleet_from_options(opts_of({hosts.c_str(), "--rank=1"}));
  ASSERT_TRUE(rank1.has_value());
  EXPECT_EQ(rank1->hosts.size(), 2u);
  EXPECT_EQ(rank1->max_rank(), 1u);
  for (const char* bad : {"--rank=2", "--rank=-1"}) {
    EXPECT_TRUE(contains(error_of([&] {
                           (void)fleet_from_options(
                               opts_of({hosts.c_str(), bad}));
                         }),
                         "--rank must be < the hosts file size (2)"))
        << bad;
  }
}

TEST(FrontendFleet, FailedRankIsReported) {
  const std::optional<Fleet> fleet = fleet_from_options(opts_of({"--local=2"}));
  ASSERT_TRUE(fleet.has_value());
  ::testing::internal::CaptureStderr();
  const int code = launch(*fleet, [](net::LoopbackRank&& lr) -> int {
    if (lr.rank == 1) throw std::runtime_error("rank 1 gives up");
    return 0;
  });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 2);
  EXPECT_TRUE(contains(err, "error: a rank failed (rank 0 -> 0, rank 1 -> 3)"))
      << err;
  EXPECT_EQ(launch(*fleet, [](net::LoopbackRank&&) { return 0; }), 0);
}

}  // namespace
}  // namespace ds::frontend
