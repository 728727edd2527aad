#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace smartdd {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds should give different streams";
}

TEST(RngTest, UniformIntStaysInBounds) {
  Rng rng(1);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

// The rejection threshold is computed only for draws below the bound; this
// checks the draws against the loop that computes it before every draw.
TEST(RngTest, UniformIntMatchesTwoDivisionReference) {
  auto reference = [](Rng& rng, uint64_t bound) {
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const uint64_t r = rng.Next();
      if (r >= threshold) return r % bound;
    }
  };
  constexpr uint64_t kTop = ~uint64_t{0};
  const uint64_t bounds[] = {1,
                             2,
                             3,
                             5,
                             7,
                             uint64_t{1} << 32,
                             (uint64_t{1} << 32) + 1,
                             uint64_t{1} << 63,
                             (uint64_t{1} << 63) + 1,
                             kTop - 1,
                             kTop,
                             0xC3A5C85C97CB3127ULL};
  for (uint64_t bound : bounds) {
    Rng rng(77), ref(77);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(rng.UniformInt(bound), reference(ref, bound))
          << "bound " << bound << " draw " << i;
    }
    // Both consumed the same raw draws, rejections included.
    EXPECT_EQ(rng.Next(), ref.Next()) << "bound " << bound;
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  mean /= 10000;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  Rng rng(8);
  Rng::ZipfTable zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 20000.0, 0.25, 0.03);
}

TEST(ZipfTest, SkewedFrequenciesDecrease) {
  Rng rng(9);
  Rng::ZipfTable zipf(6, 1.2);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 30000; ++i) ++counts[zipf.Sample(rng)];
  // First value dominates; counts should be (weakly) decreasing overall.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[3]);
  EXPECT_GT(counts[0], 3 * counts[5]);
}

TEST(ZipfTest, SingleValueDomain) {
  Rng rng(10);
  Rng::ZipfTable zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyMoves) {
  Rng rng(12);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(SplitMix64Test, AdvancesState) {
  uint64_t s = 0;
  uint64_t a = SplitMix64(s);
  uint64_t b = SplitMix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

TEST(DeriveSeedTest, DistinctStreamsGiveDistinctSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t stream = 0; stream < 1000; ++stream) {
    seeds.insert(DeriveSeed(42, stream));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Deterministic pure function.
  EXPECT_EQ(DeriveSeed(42, 7), DeriveSeed(42, 7));
  EXPECT_NE(DeriveSeed(42, 7), DeriveSeed(43, 7));
  EXPECT_EQ(DeriveSeed(42, 7, 3), DeriveSeed(DeriveSeed(42, 7), 3));
}

TEST(DeriveSeedTest, AdjacentStreamsAvalanche) {
  // Flipping the stream id by one must flip about half of the output bits —
  // the property the old `seed + counter * 0x9E37` derivation lacked.
  double total_bits = 0;
  const int pairs = 500;
  for (uint64_t stream = 0; stream < pairs; ++stream) {
    uint64_t diff = DeriveSeed(42, stream) ^ DeriveSeed(42, stream + 1);
    total_bits += static_cast<double>(std::popcount(diff));
  }
  double mean = total_bits / pairs;
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
}

TEST(DeriveSeedTest, AdjacentStreamRngsDecorrelate) {
  // Rng streams seeded from adjacent stream ids must agree on ~50% of
  // output bits (independent streams), never track each other.
  for (uint64_t stream = 0; stream < 8; ++stream) {
    Rng a(DeriveSeed(42, stream));
    Rng b(DeriveSeed(42, stream + 1));
    double agree_bits = 0;
    const int draws = 512;
    for (int i = 0; i < draws; ++i) {
      agree_bits += static_cast<double>(std::popcount(~(a.Next() ^ b.Next())));
    }
    double mean = agree_bits / draws;
    EXPECT_GT(mean, 28.0) << "stream " << stream;
    EXPECT_LT(mean, 36.0) << "stream " << stream;
  }
}

}  // namespace
}  // namespace smartdd
