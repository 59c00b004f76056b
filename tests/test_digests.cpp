// Pins every FNV-1a digest in the system to its value on one small fixed
// instance: the output digest, the .dsg payload digest, the rendezvous
// partition/instance/launch digests, the in-situ fleet digest, and the
// serve params digest and instance structure digest. These values cross
// process and build boundaries (rendezvous handshakes, .dsg files on disk,
// CI digest diffs), so any change to how they are hashed must leave every
// one bit-identical. Two pins also hash coins: the materialized `mis`
// digest (Luby's priorities) and the program outputs of every registry
// message-passing program, which move exactly when the `Rng` stream or a
// program changes; every other pin is independent of them.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "net/insitu_runner.hpp"
#include "net/loopback.hpp"
#include "net/rendezvous.hpp"
#include "serve/protocol.hpp"
#include "support/rng.hpp"

namespace ds {
namespace {

TEST(PinnedDigests, OutputDigest) {
  algo::Result result;
  result.output_words = {0, 1, 2, 0xDEADBEEFCAFEF00Dull, 42};
  EXPECT_EQ(result.output_digest(), 0x0e6a1e10b0b9a7bdull);
  EXPECT_EQ(algo::Result{}.output_digest(), 1469598103934665603ull);
}

TEST(PinnedDigests, DsgPayloadDigest) {
  const std::string path = ::testing::TempDir() + "/pinned_digest.dsg";
  graph::write_dsg(graph::gen::torus(5, 4), path, /*nu=*/0, /*seed=*/7);
  graph::DsgHeader header;
  (void)graph::load_dsg(path, &header, /*verify_digest=*/true);
  EXPECT_EQ(header.payload_digest, 0x603ab20d8650bbe3ull);
}

TEST(PinnedDigests, RendezvousDigests) {
  const std::uint64_t structure =
      net::structure_digest(graph::gen::torus(5, 4), 0);
  EXPECT_EQ(net::launch_digest(structure, 7, "random"), 0x34e2d941b3c1e542ull);
  EXPECT_EQ(net::partition_digest(2, {0, 9, 20}), 0xa0f476fde33a785cull);
  EXPECT_EQ(net::instance_digest("torus:w=5,h=4 seed=7"),
            0xae1e9dd474b70b59ull);
}

TEST(PinnedDigests, InsituFleetDigestMatchesMaterializedRun) {
  const graph::GenSpec gen = graph::GenSpec::parse("torus:w=6,h=5");
  const algo::Spec& spec = algo::find("mis");
  const algo::Params params = algo::Params::parse(spec.params, {});
  const graph::Graph g = graph::DistributedGenerator(gen, 7).generate_full();
  algo::RunContext ctx;
  ctx.graph = &g;
  ctx.seed = 7;
  ctx.params = params;
  const std::uint64_t materialized = algo::execute(spec, ctx).output_digest();
  EXPECT_EQ(materialized, 0x005c9611c0266103ull);
  const net::LoopbackReport report =
      net::run_loopback_ranks(2, [&](net::LoopbackRank&& lr) -> int {
        net::InsituConfig config;
        config.rank = lr.rank;
        config.hosts = std::move(lr.hosts);
        config.listen = std::move(lr.listen);
        const net::InsituResult result =
            net::run_insitu(spec, params, 7, gen, std::move(config));
        return result.output_digest == materialized ? 0 : 1;
      });
  EXPECT_TRUE(report.all_ok());
}

TEST(PinnedDigests, ProgramOutputs) {
  // The output digest of every message-passing program in the registry,
  // default params, seed 7: the program objects' layout may change, their
  // outputs may not. `color` on K70 has a 71-color palette, wider than one
  // 64-bit word.
  const auto digest = [](const std::string& name, const graph::Graph* g,
                         const graph::BipartiteGraph* b) {
    const algo::Spec& spec = algo::find(name);
    algo::RunContext ctx;
    ctx.graph = g;
    ctx.bipartite = b;
    ctx.seed = 7;
    ctx.params = algo::Params::parse(spec.params, {});
    const algo::Result result = algo::execute(spec, ctx);
    EXPECT_TRUE(result.verified) << name;
    return result.output_digest();
  };
  const graph::Graph torus =
      graph::DistributedGenerator(graph::GenSpec::parse("torus:w=6,h=5"), 7)
          .generate_full();
  EXPECT_EQ(digest("mis", &torus, nullptr), 0x005c9611c0266103ull);
  EXPECT_EQ(digest("color", &torus, nullptr), 0xce2d922f64bb3f65ull);
  EXPECT_EQ(digest("sinkless", &torus, nullptr), 0x74771a116ffd8643ull);
  EXPECT_EQ(digest("ruling", &torus, nullptr), 0xf565ff273160a763ull);
  EXPECT_EQ(digest("netdecomp", &torus, nullptr), 0x0972a5cc6c415323ull);
  Rng rng(12);
  const graph::BipartiteGraph bireg =
      graph::gen::random_biregular(32, 64, 6, rng);
  EXPECT_EQ(digest("split", nullptr, &bireg), 0xd2e8805084cf1803ull);
  const graph::Graph k70 = graph::gen::complete(70);
  EXPECT_EQ(digest("color", &k70, nullptr), 0xe725b14f189ef122ull);
}

TEST(PinnedDigests, ServeDigests) {
  EXPECT_EQ(serve::params_digest({{"max-rounds", "9"}, {"eps", "0.5"}}),
            0x78c6b53818243abbull);
  EXPECT_EQ(serve::params_digest({}), 14695981039346656037ull);
  EXPECT_EQ(net::structure_digest(graph::gen::torus(5, 4), 3),
            0xf1f5ce43d0fc5d92ull);
}

}  // namespace
}  // namespace ds
