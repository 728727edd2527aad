// Tests for the bit-packed column storage and the runtime-dispatched scan
// kernels: round-trips across every width class, the kernel unit
// differentials (scalar, AVX2 and AVX-512 must agree byte for byte), and a
// full-tree differential suite proving drill-down trees identical across
// {every available kernel path} x threads (x shards for in-memory tables)
// on memory, measure, and disk tables.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "core/best_marginal.h"
#include "core/scan_kernels.h"
#include "data/census_gen.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "storage/disk_table.h"
#include "storage/scan_source.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

/// Deterministic codes < dict_size with every value guaranteed present
/// (when n >= dict_size), so histogram tests exercise the full range.
std::vector<uint32_t> MakeCodes(uint64_t n, uint32_t dict_size,
                                uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> codes(n);
  for (uint64_t i = 0; i < n; ++i) {
    codes[i] = i < dict_size ? static_cast<uint32_t>(i)
                             : rng() % dict_size;
  }
  return codes;
}

PackedColumn MakeColumn(const std::vector<uint32_t>& codes,
                        uint32_t dict_size, bool freeze = true) {
  PackedColumn col;
  for (uint32_t c : codes) col.Append(c);
  if (freeze) col.Freeze(dict_size);
  return col;
}

// --- Round-trips across width classes ---------------------------------------

TEST(PackedColumnTest, RoundTripEveryWidthClass) {
  // Edge sizes straddle the 64-bit word boundary of the kSub layout.
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64},
                     uint64_t{65}, uint64_t{1000}}) {
    for (uint32_t dict : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 200u, 300u,
                          70000u}) {
      std::vector<uint32_t> codes = MakeCodes(n, dict, 42);
      PackedColumn col = MakeColumn(codes, dict);
      ASSERT_EQ(col.size(), n);
      EXPECT_TRUE(col.frozen());
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(col.Get(i), codes[i]) << "n=" << n << " dict=" << dict
                                        << " i=" << i;
      }
    }
  }
}

TEST(PackedColumnTest, WidthClassSelection) {
  // Sub-byte widths round up to a power of two (1, 2, 4) so no code ever
  // straddles a byte; 5..7-bit dictionaries take a whole byte.
  struct Case {
    uint32_t dict;
    PackedWidth width;
    uint8_t bits;
  };
  const Case cases[] = {
      {1, PackedWidth::kConst, 0},  {2, PackedWidth::kSub, 1},
      {3, PackedWidth::kSub, 2},    {4, PackedWidth::kSub, 2},
      {5, PackedWidth::kSub, 4},    // 3 bits rounds up to 4
      {16, PackedWidth::kSub, 4},   {17, PackedWidth::k8, 8},  // 5 -> 8
      {256, PackedWidth::k8, 8},    {257, PackedWidth::k16, 16},
      {65536, PackedWidth::k16, 16}, {65537, PackedWidth::k32, 32},
  };
  for (const Case& c : cases) {
    std::vector<uint32_t> codes = MakeCodes(100, c.dict, 7);
    PackedColumn col = MakeColumn(codes, c.dict);
    EXPECT_EQ(col.width(), c.width) << "dict=" << c.dict;
    EXPECT_EQ(col.bits(), c.bits) << "dict=" << c.dict;
  }
}

TEST(PackedColumnTest, FreezeIsIdempotentAndShrinksBytes) {
  std::vector<uint32_t> codes = MakeCodes(10000, 13, 3);
  PackedColumn col = MakeColumn(codes, 13, /*freeze=*/false);
  const size_t unpacked_bytes = col.byte_size();
  col.Freeze(13);
  const size_t packed_bytes = col.byte_size();
  EXPECT_LT(packed_bytes * 2, unpacked_bytes);  // 4 bits vs 32
  col.Freeze(13);  // no-op
  EXPECT_EQ(col.byte_size(), packed_bytes);
  for (uint64_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.Get(i), codes[i]);
  }
}

TEST(PackedColumnTest, UnfrozenColumnsKeepFullReadSupport) {
  std::vector<uint32_t> codes = MakeCodes(500, 9, 11);
  PackedColumn col = MakeColumn(codes, 9, /*freeze=*/false);
  EXPECT_FALSE(col.frozen());
  for (uint64_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.Get(i), codes[i]);
  }
  col.Append(3);  // appends stay legal before freeze
  EXPECT_EQ(col.Get(codes.size()), 3u);
}

// --- Packed views: SliceRows ------------------------------------------------

TEST(PackedColumnTest, SliceRowsOfFrozenTableStaysPackedAndByteCompatible) {
  SynthSpec spec;
  spec.rows = 10000;
  spec.cardinalities = {3, 9, 40, 70000};  // kSub, kSub, k8, k32
  spec.seed = 5;
  Table table = GenerateSyntheticTable(spec);  // generator freezes
  ASSERT_TRUE(table.column(0).frozen());

  Table slice = table.SliceRows(2500, 7500);
  ASSERT_EQ(slice.num_rows(), 5000u);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // Slices of frozen tables keep the parent's width class (the shared
    // dictionary fixed it), so shard payloads stay byte-compatible.
    EXPECT_EQ(slice.column(c).width(), table.column(c).width()) << "c=" << c;
    for (uint64_t i = 0; i < 5000; i += 37) {
      ASSERT_EQ(slice.column(c).Get(i), table.column(c).Get(2500 + i))
          << "c=" << c << " i=" << i;
    }
  }
}

// --- Kernel unit differentials ----------------------------------------------

/// Runs `check` for the kernels of every path this host has — the
/// differential contract is that all tables have identical observable
/// behavior on every width class.
template <typename Check>
void ForEachKernelPath(Check check) {
  for (KernelPath path : AvailableKernelPaths()) {
    check(GetScanKernels(path), KernelPathName(path));
  }
}

TEST(ScanKernelTest, ResolveHonorsEachPathAndFallsBackToTheBest) {
  const std::vector<KernelPath> available = AvailableKernelPaths();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), KernelPath::kScalar);
  const KernelPath best = available.back();
  for (KernelPath path : kKernelPaths) {
    testing::ScopedKernel scoped(KernelPathName(path));
    EXPECT_EQ(ResolveKernelPath(), KernelPathAvailable(path) ? path : best)
        << KernelPathName(path);
    EXPECT_EQ(&GetScanKernels(path), &GetScanKernels(ResolveKernelPath()))
        << KernelPathName(path);
  }
  for (const char* value : {"auto", "", "avx1024"}) {
    testing::ScopedKernel scoped(value);
    EXPECT_EQ(ResolveKernelPath(), best) << "SMARTDD_KERNEL=" << value;
  }
}

// --- Packed views: GatherRows and SliceRows copy in the source's layout ------

/// A table with one column per width class: dictionaries of 1 (kConst),
/// 2, 4 and 16 (kSub at 1, 2 and 4 bits), 200 (k8), 300 (k16) and 70000
/// (k32) values, every code occurring, and a measure; frozen on request.
Table EveryWidthTable(uint64_t n, bool freeze) {
  const std::vector<uint32_t> dicts = {1, 2, 4, 16, 200, 300, 70000};
  std::vector<std::string> names;
  for (size_t c = 0; c < dicts.size(); ++c) {
    names.push_back("c" + std::to_string(c));
  }
  Table table(names);
  table.AddMeasureColumn("m");
  for (size_t c = 0; c < dicts.size(); ++c) {
    for (uint32_t v = 0; v < dicts[c]; ++v) {
      table.EncodeValue(c, std::to_string(v));
    }
  }
  std::vector<std::vector<uint32_t>> codes;
  for (size_t c = 0; c < dicts.size(); ++c) {
    codes.push_back(MakeCodes(n, dicts[c], static_cast<uint32_t>(7 + c)));
  }
  std::vector<uint32_t> row(dicts.size());
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < dicts.size(); ++c) row[c] = codes[c][r];
    table.AppendRow(row, std::vector<double>{0.5 * static_cast<double>(r)});
  }
  if (freeze) table.Freeze();
  return table;
}

/// Checks that row i of `copy` is row rows[i] of `src`: every code through
/// Get and through each kernel path's unpack (which reads the payload's
/// tail padding), the measure, and the source's width class and bits.
void ExpectCopyOf(const Table& src, const Table& copy,
                  const std::vector<uint32_t>& rows, const std::string& label) {
  ASSERT_EQ(copy.num_rows(), rows.size()) << label;
  EXPECT_EQ(copy.is_frozen(), src.is_frozen()) << label;
  for (size_t c = 0; c < src.num_columns(); ++c) {
    const PackedColumn& col = copy.column(c);
    EXPECT_EQ(col.width(), src.column(c).width()) << label << " c=" << c;
    EXPECT_EQ(col.bits(), src.column(c).bits()) << label << " c=" << c;
    if (col.width() == PackedWidth::kSub || col.width() == PackedWidth::k8 ||
        col.width() == PackedWidth::k16) {
      // The tail padding the sub-byte and SIMD gather reads rely on.
      EXPECT_GE(col.byte_size(),
                PackedColumn::PayloadBytes({col.width(), col.bits()},
                                           rows.size()) +
                    kPackedPadBytes)
          << label << " c=" << c;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(col.Get(i), src.column(c).Get(rows[i]))
          << label << " c=" << c << " i=" << i;
    }
    ForEachKernelPath([&](const ScanKernels& k, const char* path) {
      std::vector<uint32_t> out(kScanBlockRows);
      for (uint64_t b0 = 0; b0 < rows.size(); b0 += kScanBlockRows) {
        const uint64_t b1 =
            std::min<uint64_t>(rows.size(), b0 + kScanBlockRows);
        k.unpack(col.ref(), b0, b1, out.data());
        for (uint64_t i = b0; i < b1; ++i) {
          ASSERT_EQ(out[i - b0], src.column(c).Get(rows[i]))
              << label << " " << path << " c=" << c << " i=" << i;
        }
      }
    });
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(copy.measure(0, i), src.measure(0, rows[i])) << label;
  }
}

TEST(PackedColumnTest, GatherAndSliceCopyEveryWidthClass) {
  constexpr uint64_t kRows = 5003;  // a partial block and partial words
  std::mt19937 rng(61);
  for (bool freeze : {true, false}) {
    const Table table = EveryWidthTable(kRows, freeze);
    if (freeze) {
      const std::vector<PackedWidth> want = {
          PackedWidth::kConst, PackedWidth::kSub, PackedWidth::kSub,
          PackedWidth::kSub,   PackedWidth::k8,   PackedWidth::k16,
          PackedWidth::k32};
      for (size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(table.column(c).width(), want[c]) << "c=" << c;
      }
      ASSERT_EQ(table.column(1).bits(), 1);
      ASSERT_EQ(table.column(2).bits(), 2);
      ASSERT_EQ(table.column(3).bits(), 4);
    }
    const std::string label = freeze ? "frozen" : "unfrozen";
    // Any order, with repeats; and none.
    std::vector<uint32_t> rows(3 * kRows / 2);
    for (uint32_t& r : rows) r = rng() % kRows;
    ExpectCopyOf(table, table.GatherRows(rows), rows, label + " gather");
    ExpectCopyOf(table, table.GatherRows({}), {}, label + " empty gather");
    std::vector<uint32_t> slice_rows;
    for (uint32_t r = 13; r < 4990; ++r) slice_rows.push_back(r);
    ExpectCopyOf(table, table.SliceRows(13, 4990), slice_rows,
                 label + " slice");
  }
}

TEST(PackedColumnTest, CopiesKeepWidthsAfterTheDictionaryGrew) {
  // A shared dictionary that grows after the table froze (a live table's
  // appends) must not change how copies are laid out: they keep the
  // widths the table froze at, which every reader takes from the column.
  Table table = EveryWidthTable(2000, /*freeze=*/true);
  table.EncodeValue(1, "grown");  // 3 values: 2 bits would now be needed
  table.EncodeValue(3, "grown");  // 17 values: a byte
  for (uint32_t v = 200; v < 260; ++v) {
    table.EncodeValue(4, std::to_string(v));  // 260 values: 16 bits
  }
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 2000; r += 3) rows.push_back(1999 - r);
  ExpectCopyOf(table, table.GatherRows(rows), rows, "grown gather");
  std::vector<uint32_t> slice_rows;
  for (uint32_t r = 100; r < 1100; ++r) slice_rows.push_back(r);
  ExpectCopyOf(table, table.SliceRows(100, 1100), slice_rows, "grown slice");
}

TEST(ScanKernelTest, UnpackMatchesGetOnEveryWidth) {
  for (uint32_t dict : {1u, 2u, 4u, 9u, 16u, 200u, 300u, 70000u}) {
    std::vector<uint32_t> codes = MakeCodes(5000, dict, dict);
    PackedColumn col = MakeColumn(codes, dict);
    ForEachKernelPath([&](const ScanKernels& k, const char* name) {
      // Unaligned begin/end stress the sub-byte head/tail handling.
      for (auto [b, e] : {std::pair<uint64_t, uint64_t>{0, 5000},
                          {1, 4999}, {63, 129}, {4093, 4101}}) {
        std::vector<uint32_t> out(e - b, 0xDEADBEEF);
        k.unpack(col.ref(), b, e, out.data());
        for (uint64_t i = b; i < e; ++i) {
          ASSERT_EQ(out[i - b], codes[i])
              << name << " dict=" << dict << " range=[" << b << "," << e
              << ") i=" << i;
        }
      }
    });
  }
}

TEST(ScanKernelTest, CountCodesMatchesScalarHistogram) {
  for (uint32_t dict : {1u, 2u, 3u, 4u, 9u, 13u, 16u, 200u, 300u, 70000u}) {
    std::vector<uint32_t> codes = MakeCodes(20000, dict, dict + 1);
    PackedColumn col = MakeColumn(codes, dict);
    for (auto [b, e] : {std::pair<uint64_t, uint64_t>{0, 20000},
                        {0, 0}, {1, 2}, {7, 63}, {5, 20000}, {64, 128},
                        {12345, 19999}}) {
      std::vector<uint32_t> want(dict, 0);
      for (uint64_t i = b; i < e; ++i) ++want[codes[i]];
      ForEachKernelPath([&](const ScanKernels& k, const char* name) {
        std::vector<uint32_t> got(dict, 0);
        k.count_codes(col.ref(), b, e, dict, got.data());
        ASSERT_EQ(got, want) << name << " dict=" << dict << " range=[" << b
                             << "," << e << ")";
      });
    }
  }
}

TEST(ScanKernelTest, CountCodesAccumulatesIntoExistingCounts) {
  std::vector<uint32_t> codes = MakeCodes(1000, 4, 5);
  PackedColumn col = MakeColumn(codes, 4);
  ForEachKernelPath([&](const ScanKernels& k, const char* name) {
    std::vector<uint32_t> counts(4, 100);
    k.count_codes(col.ref(), 0, 1000, 4, counts.data());
    uint32_t total = 0;
    for (uint32_t c : counts) total += c - 100;
    EXPECT_EQ(total, 1000u) << name;
  });
}

TEST(ScanKernelTest, MatchEqAgreesAcrossPaths) {
  for (uint32_t dict : {2u, 4u, 9u, 200u, 300u}) {
    std::vector<uint32_t> codes = MakeCodes(4096, dict, 17);
    PackedColumn col = MakeColumn(codes, dict);
    const uint32_t want = dict / 2;
    ForEachKernelPath([&](const ScanKernels& k, const char* name) {
      std::vector<uint8_t> mask(4096);
      k.match_eq(col.ref(), 0, 4096, want, mask.data(), true);
      for (size_t i = 0; i < 4096; ++i) {
        ASSERT_EQ(mask[i] != 0, codes[i] == want) << name << " i=" << i;
      }
    });
  }
}

TEST(ScanKernelTest, BitsetAndAndPopcountAgreeAcrossPaths) {
  std::mt19937_64 gen(1412);
  // Lengths around the four-word unroll and the eight-word vector (with and
  // without a tail), and words from empty to full.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{9}, size_t{15}, size_t{16},
                   size_t{17}, size_t{64}, size_t{313}}) {
    std::vector<uint64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = i % 7 == 0 ? ~uint64_t{0} : gen();
      b[i] = i % 5 == 0 ? 0 : gen() | gen();
    }
    std::vector<uint64_t> want(n);
    uint64_t want_count = 0;
    for (size_t i = 0; i < n; ++i) {
      want[i] = a[i] & b[i];
      for (uint64_t x = want[i]; x != 0; x &= x - 1) ++want_count;
    }
    ForEachKernelPath([&](const ScanKernels& k, const char* name) {
      std::vector<uint64_t> out(n, 0xABCD);
      EXPECT_EQ(k.and_store(a.data(), b.data(), n, out.data()), want_count)
          << name << " n=" << n;
      EXPECT_EQ(out, want) << name << " n=" << n;
      // In place, as a chain of ANDs uses it.
      std::vector<uint64_t> acc = a;
      EXPECT_EQ(k.and_store(acc.data(), b.data(), n, acc.data()), want_count)
          << name << " n=" << n;
      EXPECT_EQ(acc, want) << name << " n=" << n;
    });
  }
}

TEST(ScanKernelTest, BitsetPlaneMassAgreesAcrossPaths) {
  std::mt19937_64 gen(1997);
  // Lengths around the four-word unroll and the eight-word vector (4, 8
  // and 16 have no tail word, the others do), and plane counts from none
  // (a popcount) to the Sum regime's cap.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{9}, size_t{15}, size_t{16},
                   size_t{17}, size_t{313}}) {
    std::vector<uint64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = i % 7 == 0 ? ~uint64_t{0} : gen();
      b[i] = i % 5 == 0 ? 0 : gen() | gen();
    }
    for (size_t num_planes : {size_t{0}, size_t{1}, size_t{7},
                              kMaxMeasurePlanes}) {
      std::vector<uint64_t> planes(num_planes * n);
      for (size_t i = 0; i < planes.size(); ++i) {
        planes[i] = i % 3 == 0 ? ~uint64_t{0} : gen() & gen();
      }
      // The mass of a & b, row by row: each set row adds its measure,
      // whose bit p is the row's bit in plane p.
      uint64_t want = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t bit = 0; bit < 64; ++bit) {
          if (((a[i] & b[i]) >> bit & 1) == 0) continue;
          uint64_t measure = num_planes == 0 ? 1 : 0;
          for (size_t p = 0; p < num_planes; ++p) {
            measure |= (planes[p * n + i] >> bit & 1) << p;
          }
          want += measure;
        }
      }
      ForEachKernelPath([&](const ScanKernels& k, const char* name) {
        EXPECT_EQ(k.and_mass(a.data(), b.data(), planes.data(), num_planes,
                             n),
                  want)
            << name << " n=" << n << " planes=" << num_planes;
      });
    }
  }
}

TEST(ScanKernelTest, MeasurePlanesAgreeAcrossPaths) {
  std::mt19937_64 gen(1412);
  for (size_t num_planes : {size_t{1}, size_t{7}, kMaxMeasurePlanes}) {
    // Row ranges from empty to several words, starting on and off word
    // and byte boundaries, after earlier bits the kernel must keep.
    for (uint64_t first : {uint64_t{0}, uint64_t{3}, uint64_t{64},
                           uint64_t{69}}) {
      for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{8},
                         uint64_t{13}, uint64_t{300}}) {
        std::vector<double> values(n);
        for (double& v : values) {
          v = static_cast<double>(gen() >> (64 - num_planes));
        }
        const size_t stride = (first + n + 63) / 64 + 1;
        std::vector<uint64_t> want(num_planes * stride);
        for (size_t i = 0; i < want.size(); ++i) want[i] = gen() & gen();
        const std::vector<uint64_t> before = want;
        for (uint64_t i = 0; i < n; ++i) {
          const uint64_t m = static_cast<uint64_t>(values[i]);
          const uint64_t row = first + i;
          for (size_t p = 0; p < num_planes; ++p) {
            if ((m >> p) & 1) {
              want[p * stride + row / 64] |= uint64_t{1} << (row % 64);
            }
          }
        }
        ForEachKernelPath([&](const ScanKernels& k, const char* name) {
          std::vector<uint64_t> planes = before;
          k.set_planes(values.data(), n, first, num_planes, stride,
                       planes.data());
          EXPECT_EQ(planes, want) << name << " planes=" << num_planes
                                  << " first=" << first << " n=" << n;
        });
      }
    }
  }
}

// --- Full-tree differential suite -------------------------------------------

/// Byte fingerprint of the displayed tree (rule codes + raw IEEE-754 mass
/// bits): equal fingerprints mean identical trees down to the last ULP.
std::string TreeFingerprint(const ExplorationSession& session) {
  std::string out;
  char buf[64];
  for (int id : session.DisplayOrder()) {
    const ExplorationNode& n = session.node(id);
    uint64_t mass_bits = 0, marginal_bits = 0;
    std::memcpy(&mass_bits, &n.mass, sizeof(mass_bits));
    std::memcpy(&marginal_bits, &n.marginal_mass, sizeof(marginal_bits));
    std::snprintf(buf, sizeof(buf), "%d/%d:", id, n.parent);
    out += buf;
    for (size_t c = 0; c < n.rule.num_columns(); ++c) {
      if (n.rule.is_star(c)) {
        out += "*,";
      } else {
        std::snprintf(buf, sizeof(buf), "%u,", n.rule.value(c));
        out += buf;
      }
    }
    std::snprintf(buf, sizeof(buf), "m%llxg%llx;",
                  static_cast<unsigned long long>(mass_bits),
                  static_cast<unsigned long long>(marginal_bits));
    out += buf;
  }
  return out;
}

/// Expand the root, drill into the first child, refresh exact counts.
std::string Drive(ExplorationSession& session) {
  auto level1 = session.Expand(session.root());
  EXPECT_TRUE(level1.ok()) << level1.status().ToString();
  if (!level1.ok() || level1->empty()) return std::string();
  EXPECT_TRUE(session.Expand((*level1)[0]).ok());
  EXPECT_TRUE(session.RefreshExactCounts().ok());
  return TreeFingerprint(session);
}

/// Drives every {shards} x {threads} x {available kernel path} combination
/// of a memory-table engine and expects the exact fingerprint `expected`.
void CheckMemoryGrid(const Table& table, const WeightFunction& weight,
                     const std::string& expected,
                     const std::optional<std::string>& measure) {
  for (size_t shards : {1u, 4u}) {
    for (size_t threads : {1u, 8u}) {
      for (const char* kernel : testing::AvailableKernels()) {
        testing::ScopedKernel scoped(kernel);
        EngineOptions options;
        options.num_shards = shards;
        auto engine = ExplorationEngine::Create(table, weight, options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        SessionOptions so;
        so.k = 3;
        so.num_threads = threads;
        so.measure_column = measure;
        auto session = (*engine)->NewSession(so);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        EXPECT_EQ(Drive(*session), expected)
            << "tree drift at shards=" << shards << " threads=" << threads
            << " kernel=" << kernel;
      }
    }
  }
}

TEST(PackedDifferentialTest, MemoryTableTreesIdenticalAcrossKernels) {
  SynthSpec spec;
  spec.rows = 60000;  // > kMinLaneRows so the lane grid actually splits
  spec.cardinalities = {7, 5, 6, 4};
  spec.zipf = {1.2, 0.8, 1.0, 1.4};
  spec.seed = 4321;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  std::string expected;
  {
    testing::ScopedKernel scalar("scalar");
    auto reference = testing::MakeSession(table, weight, serial);
    expected = Drive(reference.session);
  }
  ASSERT_FALSE(expected.empty());
  CheckMemoryGrid(table, weight, expected, std::nullopt);
}

TEST(PackedDifferentialTest, MeasureTableTreesIdenticalAcrossKernels) {
  SynthSpec spec;
  spec.rows = 50000;
  spec.cardinalities = {6, 9, 4};
  spec.seed = 99;
  spec.with_measure = true;  // Sum aggregation: FP accumulation on the line
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  serial.measure_column = "value";
  std::string expected;
  {
    testing::ScopedKernel scalar("scalar");
    auto reference = testing::MakeSession(table, weight, serial);
    expected = Drive(reference.session);
  }
  ASSERT_FALSE(expected.empty());
  CheckMemoryGrid(table, weight, expected, std::string("value"));
}

// Each engine is created inside its SMARTDD_KERNEL scope, so the grid flips
// the sampler's Create and ExactMasses scans (resolved when the sampler is
// constructed) along with the searches.
TEST(PackedDifferentialTest, DiskTableTreesIdenticalAcrossKernels) {
  CensusSpec census;
  census.rows = 40000;
  census.columns_used = 6;
  std::string path = ::testing::TempDir() + "/packed_diff.sddt";
  ASSERT_TRUE(GenerateCensusDiskTable(census, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource source(*disk);
  SizeWeight weight;

  EngineOptions sampling;
  sampling.use_sampling = true;
  sampling.sampler.memory_capacity = 20000;
  sampling.sampler.min_sample_size = 4000;
  sampling.sampler.seed = 7;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  std::string expected;
  {
    testing::ScopedKernel scalar("scalar");
    auto reference = testing::MakeSession(source, weight, serial, sampling);
    expected = Drive(reference.session);
  }
  ASSERT_FALSE(expected.empty());

  for (size_t threads : {1u, 8u}) {
    for (const char* kernel : testing::AvailableKernels()) {
      testing::ScopedKernel scoped(kernel);
      auto engine = ExplorationEngine::Create(source, weight, sampling);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      SessionOptions so;
      so.k = 3;
      so.num_threads = threads;
      auto session = (*engine)->NewSession(so);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ(Drive(*session), expected)
          << "disk tree drift at threads=" << threads << " kernel=" << kernel;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smartdd
