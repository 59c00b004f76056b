// Unit tests for the support substrate: checks, RNG, statistics, tables,
// option parsing.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <type_traits>

#include "support/check.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ds {
namespace {

TEST(Check, PassingCheckDoesNothing) { DS_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    DS_CHECK_MSG(false, "context message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context message"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_raw(), b.next_raw());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_raw() == b.next_raw()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsStableAndIndependentOfCallOrder) {
  Rng parent(99);
  Rng c1 = parent.fork(5);
  Rng c2 = parent.fork(6);
  // Forking again with the same stream id reproduces the same child.
  Rng c1_again = parent.fork(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(c1.next_raw(), c1_again.next_raw());
  }
  // Distinct streams diverge.
  Rng c2_again = parent.fork(6);
  EXPECT_EQ(c2.next_raw(), c2_again.next_raw());
}

TEST(Rng, BoundedDrawsStayInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_u64(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  const auto perm = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (std::size_t x : perm) {
    ASSERT_LT(x, 50u);
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(123);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool()) ++heads;
  }
  EXPECT_NEAR(heads, 5000, 300);
}

// Known answers: xoshiro256** seeded with the first four SplitMix64 outputs
// of the seed. Every compiler and standard library must produce this stream.
TEST(Rng, KnownAnswers) {
  Rng zero(0);
  for (std::uint64_t expected :
       {0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull, 0x1a5f849d4933e6e0ull,
        0x6aa594f1262d2d2cull}) {
    EXPECT_EQ(zero.next_raw(), expected);
  }
  Rng answer(42);
  for (std::uint64_t expected :
       {0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull, 0xae17533239e499a1ull,
        0xecb8ad4703b360a1ull}) {
    EXPECT_EQ(answer.next_raw(), expected);
  }
}

TEST(Rng, ForkIgnoresDrawsOnTheParent) {
  const Rng fresh(2024);
  Rng drawn(2024);
  for (int i = 0; i < 1000; ++i) (void)drawn.next_raw();
  Rng a = fresh.fork(17);
  Rng b = drawn.fork(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_raw(), b.next_raw());
}

TEST(Rng, AdjacentForksDiffer) {
  const Rng parent(2024);
  for (std::uint64_t s : {0ull, 1ull, 17ull, ~0ull - 1}) {
    Rng a = parent.fork(s);
    Rng b = parent.fork(s + 1);
    EXPECT_NE(a.seed(), b.seed());
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a.next_raw() == b.next_raw();
    EXPECT_EQ(equal, 0) << "stream " << s;
  }
}

TEST(Rng, BoundedDrawsAtExtremeBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.next_u64(1), 0u);
  const std::uint64_t bounds[] = {3, (1ull << 63) + 1, UINT64_MAX};
  for (std::uint64_t bound : bounds) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_u64(bound), bound);
  }
}

TEST(Rng, BoundedDrawsAreUnbiased) {
  Rng rng(31337);
  constexpr int kDraws = 300000;
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_u64(3)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 1.0 / 3.0, 0.01);
  }
}

// A node environment carries one generator per node; it must stay a few
// words that copy with memcpy.
TEST(Rng, IsSmallAndTriviallyCopyable) {
  EXPECT_LE(sizeof(Rng), 40u);
  EXPECT_TRUE(std::is_trivially_copyable_v<Rng>);
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(LinearFit, DegenerateXGivesZeroSlope) {
  std::vector<double> x{2, 2, 2};
  std::vector<double> y{1, 2, 3};
  const LinearFit fit = fit_line(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").num(static_cast<long long>(42));
  t.row().cell("b").num(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string rendered = os.str();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("42"), std::string::npos);
  EXPECT_NE(rendered.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CellWithoutRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.cell("oops"), CheckError);
}

TEST(FormatDouble, SwitchesToScientificForExtremes) {
  EXPECT_NE(format_double(1.5e-9).find("e"), std::string::npos);
  EXPECT_EQ(format_double(12.5).find("e"), std::string::npos);
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--verbose", "--eps=0.25"};
  Options opts(4, argv);
  EXPECT_EQ(opts.get_int("n", 0), 128);
  EXPECT_TRUE(opts.has("verbose"));
  EXPECT_DOUBLE_EQ(opts.get_double("eps", 0.0), 0.25);
  EXPECT_EQ(opts.get_int("missing", 7), 7);
  EXPECT_EQ(opts.seed(), 1u);
}

TEST(Options, RejectsMalformedArguments) {
  const char* argv[] = {"prog", "n=128"};
  EXPECT_THROW(Options(2, argv), CheckError);
}

TEST(Options, NumbersMustParseWhole) {
  // A trailing "x" must not pass as the number before it, and a non-number
  // must fail with the flag's name rather than a bare "stoll".
  const char* argv[] = {"prog", "--seed=7x", "--port=abc", "--eps=0.5s",
                        "--big=99999999999999999999", "--neg=-3"};
  const Options opts(6, argv);
  for (const std::string key : {"seed", "port", "big"}) {
    try {
      (void)opts.get_int(key, 0);
      ADD_FAILURE() << key << " parsed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("--" + key + "="),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)opts.seed(), CheckError);
  EXPECT_THROW((void)opts.get_double("eps", 0.0), CheckError);
  EXPECT_EQ(opts.get_int("neg", 0), -3);
}

}  // namespace
}  // namespace ds
