#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "test_helpers.hpp"

namespace ulba::support {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 50; ++i) (void)b.uniform(0.0, 1.0);  // consume b
  Rng fa = a.fork(3);
  Rng fb = b.fork(3);
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(fa.uniform(0.0, 1.0), fb.uniform(0.0, 1.0));
}

TEST(Rng, ForkStreamsDiffer) {
  Rng a(7);
  Rng f0 = a.fork(0);
  Rng f1 = a.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (f0.uniform(0.0, 1.0) == f1.uniform(0.0, 1.0)) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.5, 13.25);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 13.25);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6, 7}));
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform_int(4, 2), std::invalid_argument);
}

TEST(Rng, IndexStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW((void)rng.bernoulli(-0.1), std::invalid_argument);
}

TEST(Rng, BernoulliFrequencyNearP) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PickReturnsMembers) {
  Rng rng(29);
  const std::vector<int> values{10, 20, 30};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i)
    seen.insert(rng.pick(std::span<const int>(values)));
  EXPECT_EQ(seen, (std::set<int>{10, 20, 30}));
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = rng.sample_without_replacement(20, 8);
    ASSERT_EQ(s.size(), 8u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 8u);
    for (std::size_t v : s) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementFullPopulationIsPermutation) {
  Rng rng(37);
  auto s = rng.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(41);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementMatchesThePoolAlgorithm) {
  // Same draws, same indices in the same order, same next engine draw.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 1}, {2, 1}, {383, 2}, {10, 10}, {64, 16}, {std::size_t{1} << 20, 3}};
  for (const auto& [n, k] : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng fast(seed), pool(seed);
      for (int draw = 0; draw < 8; ++draw)
        ASSERT_EQ(fast.sample_without_replacement(n, k),
                  ulba::testing::pool_sample(pool, n, k))
            << "n=" << n << " k=" << k << " seed=" << seed
            << " draw=" << draw;
      EXPECT_EQ(fast(), pool()) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(43);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, SampleWithoutReplacementAlwaysValid) {
  Rng rng(GetParam());
  const auto s = rng.sample_without_replacement(64, 16);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 16u);
  for (std::size_t v : s) EXPECT_LT(v, 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace ulba::support
