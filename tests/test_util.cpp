// Unit tests for util: deterministic RNG, Result, string helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace faultstudy::util {
namespace {

// ---------------------------------------------------------------- RNG

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro256, JumpDecorrelates) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.jump();
  std::size_t same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0u);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(1);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowZeroOrOneIsZero) {
  Rng rng(2);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(3);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(8);
  for (double mean : {0.5, 2.0, 10.0}) {
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += rng.poisson(mean);
    EXPECT_NEAR(sum / 20000.0, mean, mean * 0.1 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) sum += rng.poisson(100.0);
  EXPECT_NEAR(sum / 5000.0, 100.0, 2.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(14);
  Rng child = parent.fork();
  std::set<std::uint64_t> a, b;
  for (int i = 0; i < 100; ++i) {
    a.insert(parent.next_u64());
    b.insert(child.next_u64());
  }
  std::vector<std::uint64_t> inter;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  EXPECT_TRUE(inter.empty());
}

TEST(Fnv1a, StableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

// ---------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Err<std::string>{"boom"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "boom");
}

TEST(Result, MapTransformsValue) {
  Result<int> r(10);
  auto doubled = r.map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 20);
}

TEST(Result, MapPropagatesError) {
  Result<int> r(Err<std::string>{"nope"});
  auto mapped = r.map([](int v) { return v * 2; });
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.error(), "nope");
}

TEST(Result, SameTypeForValueAndError) {
  Result<std::string, std::string> ok(std::string("value"));
  Result<std::string, std::string> err(Err<std::string>{"error"});
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(err.ok());
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("apache-edn-01", "apache"));
  EXPECT_FALSE(starts_with("ap", "apache"));
  EXPECT_TRUE(ends_with("access_log", "_log"));
  EXPECT_FALSE(ends_with("log", "_log"));
}

TEST(Strings, IContains) {
  EXPECT_TRUE(icontains("Race Condition in scheduler", "race condition"));
  EXPECT_TRUE(icontains("abc", ""));
  EXPECT_FALSE(icontains("short", "longer needle"));
  EXPECT_FALSE(icontains("abcdef", "xyz"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(Strings, FixedAndPercent) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(percent(0.123), "12.3%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

}  // namespace
}  // namespace faultstudy::util
