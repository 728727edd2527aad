#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace smartdd {
namespace {

Key128 K(uint64_t lo, uint64_t hi = 0) { return Key128{lo, hi}; }

TEST(FlatMapTest, InsertAndFind) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  auto [v1, inserted1] = map.FindOrInsert(K(1));
  EXPECT_TRUE(inserted1);
  *v1 = 10;
  auto [v2, inserted2] = map.FindOrInsert(K(2, 7));
  EXPECT_TRUE(inserted2);
  *v2 = 20;
  EXPECT_EQ(map.size(), 2u);

  auto [again, inserted3] = map.FindOrInsert(K(1));
  EXPECT_FALSE(inserted3);
  EXPECT_EQ(*again, 10);
  EXPECT_EQ(*map.Find(K(2, 7)), 20);
  EXPECT_EQ(map.Find(K(2, 8)), nullptr);   // hi differs
  EXPECT_EQ(map.Find(K(3)), nullptr);
}

TEST(FlatMapTest, GrowthKeepsAllEntries) {
  FlatMap<uint64_t> map;
  const size_t n = 10000;  // forces many rehashes past the initial 16 slots
  for (uint64_t i = 0; i < n; ++i) {
    auto [v, inserted] = map.FindOrInsert(K(i * 0x9E3779B97F4A7C15ULL, i));
    ASSERT_TRUE(inserted);
    *v = i;
  }
  EXPECT_EQ(map.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t* v = map.Find(K(i * 0x9E3779B97F4A7C15ULL, i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  // Entry indices (not pointers) are the stable handle across growth:
  // insertion order is preserved by rehashes.
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(map.entry(i).second, i);
  }
}

TEST(FlatMapTest, ProbeCollisionsResolve) {
  // Sequential small keys land in a handful of buckets of the initial
  // 16-slot table, forcing linear-probe chains.
  FlatMap<int> map;
  for (int i = 0; i < 12; ++i) {
    auto [v, inserted] = map.FindOrInsert(K(static_cast<uint64_t>(i)));
    ASSERT_TRUE(inserted);
    *v = i * i;
  }
  for (int i = 0; i < 12; ++i) {
    const int* v = map.Find(K(static_cast<uint64_t>(i)));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i * i);
  }
}

TEST(FlatMapTest, IterationIsInsertionOrdered) {
  FlatMap<int> map;
  std::vector<uint64_t> keys = {42, 7, 99, 3, 1000000007};
  for (size_t i = 0; i < keys.size(); ++i) {
    *map.FindOrInsert(K(keys[i])).first = static_cast<int>(i);
  }
  size_t i = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key.lo, keys[i]);
    EXPECT_EQ(value, static_cast<int>(i));
    ++i;
  }
  EXPECT_EQ(i, keys.size());
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomWorkload) {
  FlatMap<uint32_t> map;
  std::unordered_map<uint64_t, uint32_t> reference;
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    uint64_t raw = rng.Next() % 4096;  // heavy duplication
    Key128 key = K(raw, raw ^ 0xABCDULL);
    auto [v, inserted] = map.FindOrInsert(key);
    auto [rit, rinserted] = reference.try_emplace(raw, 0);
    EXPECT_EQ(inserted, rinserted);
    *v += 1;
    rit->second += 1;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [raw, count] : reference) {
    const uint32_t* v = map.Find(K(raw, raw ^ 0xABCDULL));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, count);
  }
}

TEST(FlatMapTest, ClearResets) {
  FlatMap<int> map;
  for (uint64_t i = 0; i < 100; ++i) *map.FindOrInsert(K(i)).first = 1;
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(K(5)), nullptr);
  auto [v, inserted] = map.FindOrInsert(K(5));
  EXPECT_TRUE(inserted);
  *v = 7;
  EXPECT_EQ(*map.Find(K(5)), 7);
}

TEST(TuplePackerTest, ExactPackingIsInjective) {
  // 3 columns of widths 3, 5, 2 bits.
  TuplePacker packer(std::vector<uint8_t>{3, 5, 2});
  ASSERT_TRUE(packer.exact());
  std::unordered_map<uint64_t, std::vector<uint32_t>> seen;
  for (uint32_t a = 0; a < 8; ++a) {
    for (uint32_t b = 0; b < 32; ++b) {
      for (uint32_t c = 0; c < 4; ++c) {
        uint32_t vals[3] = {a, b, c};
        Key128 key = packer.Pack(vals, 3);
        EXPECT_EQ(key.hi, 0u);
        auto [it, inserted] = seen.try_emplace(key.lo,
                                               std::vector<uint32_t>{a, b, c});
        EXPECT_TRUE(inserted) << "collision at " << a << "," << b << "," << c;
      }
    }
  }
  EXPECT_EQ(seen.size(), 8u * 32u * 4u);
}

TEST(TuplePackerTest, StraddlesThe64BitBoundary) {
  // 5 columns x 30 bits = 150 > 128 would overflow; 4 x 30 = 120 straddles
  // the lo/hi boundary at position 2.
  TuplePacker packer(std::vector<uint8_t>{30, 30, 30, 30});
  ASSERT_TRUE(packer.exact());
  uint32_t a[4] = {0x2FFFFFFFu, 0x1ABCDEFu, 0x12345678u & 0x3FFFFFFFu, 5};
  uint32_t b[4] = {0x2FFFFFFFu, 0x1ABCDEFu, 0x12345678u & 0x3FFFFFFFu, 6};
  uint32_t c[4] = {0x2FFFFFFEu, 0x1ABCDEFu, 0x12345678u & 0x3FFFFFFFu, 5};
  EXPECT_NE(packer.Pack(a, 4), packer.Pack(b, 4));
  EXPECT_NE(packer.Pack(a, 4), packer.Pack(c, 4));
  EXPECT_EQ(packer.Pack(a, 4), packer.Pack(a, 4));
}

TEST(TuplePackerTest, PackLastEqualsPack) {
  // Random exact layouts, half of them built so that the last position
  // straddles bit 64; PackLast on the tuple's zero-last prefix must give
  // Pack's key for every last value, and Prefix must take that key back to
  // the prefix.
  Rng rng(2029);
  size_t straddles = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bits;
    size_t total = 0;
    if (trial % 2 == 0) {
      // The last field starts at bit 33..63 and ends past bit 64.
      const size_t last_shift = 33 + rng.UniformInt(31);
      while (total < last_shift) {
        bits.push_back(static_cast<uint8_t>(
            std::min<uint64_t>(last_shift - total, 1 + rng.UniformInt(16))));
        total += bits.back();
      }
      bits.push_back(static_cast<uint8_t>(
          65 - last_shift + rng.UniformInt(last_shift - 32)));
      total += bits.back();
    } else {
      // Up to 11 fields of up to 11 bits: at most 121 bits, exact.
      const size_t arity = 2 + rng.UniformInt(10);
      for (size_t i = 0; i < arity; ++i) {
        bits.push_back(static_cast<uint8_t>(1 + rng.UniformInt(11)));
        total += bits.back();
      }
    }
    const size_t arity = bits.size();
    const size_t last_shift = total - bits.back();
    straddles += last_shift < 64 && last_shift + bits.back() > 64;
    TuplePacker packer(bits);
    ASSERT_TRUE(packer.exact());
    std::vector<uint32_t> vals(arity);
    for (size_t i = 0; i < arity; ++i) {
      const uint64_t limit = uint64_t{1} << bits[i];
      vals[i] = static_cast<uint32_t>(rng.UniformInt(limit));
    }
    const uint32_t last = vals.back();
    vals.back() = 0;
    const Key128 prefix = packer.Pack(vals.data(), arity);
    vals.back() = last;
    EXPECT_EQ(packer.PackLast(prefix, last), packer.Pack(vals.data(), arity))
        << "trial " << trial;
    // The largest last value sets every bit of its field.
    vals.back() = static_cast<uint32_t>((uint64_t{1} << bits.back()) - 1);
    EXPECT_EQ(packer.PackLast(prefix, vals.back()),
              packer.Pack(vals.data(), arity))
        << "trial " << trial;
    EXPECT_EQ(packer.Prefix(packer.Pack(vals.data(), arity)), prefix)
        << "trial " << trial;
  }
  EXPECT_GE(straddles, 1000u);
}

TEST(TuplePackerTest, OverflowFallsBackToHashing) {
  // 6 columns x 32 bits = 192 bits cannot pack exactly.
  std::vector<uint8_t> bits(6, 32);
  TuplePacker packer(bits);
  EXPECT_FALSE(packer.exact());
  uint32_t a[6] = {1, 2, 3, 4, 5, 6};
  uint32_t b[6] = {1, 2, 3, 4, 5, 7};
  EXPECT_EQ(packer.Pack(a, 6), packer.Pack(a, 6));
  EXPECT_NE(packer.Pack(a, 6), packer.Pack(b, 6));
}

TEST(TuplePackerTest, CodeBitWidths) {
  EXPECT_EQ(CodeBitWidth(1), 1);
  EXPECT_EQ(CodeBitWidth(2), 1);
  EXPECT_EQ(CodeBitWidth(3), 2);
  EXPECT_EQ(CodeBitWidth(4), 2);
  EXPECT_EQ(CodeBitWidth(5), 3);
  EXPECT_EQ(CodeBitWidth(1024), 10);
  EXPECT_EQ(CodeBitWidth(1025), 11);
}

}  // namespace
}  // namespace smartdd
