// Unit tests for RowSet, the marginal finder's one cover type: the form a
// kept set takes, intersections of every pair of forms against
// std::set_intersection, ascending iteration, and weighing in the exact
// regime, where a bitset's popcounts and a list's walk must give one mass
// and one marginal for the same rows.
// The kernels are the ones SMARTDD_KERNEL selects, so a run with
// SMARTDD_KERNEL=scalar covers the portable path.

#include "core/row_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/scan_kernels.h"

namespace smartdd {
namespace {

const ScanKernels& Kernels() {
  return GetScanKernels(ResolveKernelPath());
}

/// A set and the storage it lives in.
struct Stored {
  std::vector<uint64_t> data;
  RowSet set;

  Stored(const std::vector<uint32_t>& rows, uint64_t words)
      : data(RowSet::StorageWords(rows.size(), words) + 1) {
    set = WriteRowSet(
        RowSet::List(rows.data(), static_cast<uint32_t>(rows.size()), words),
        data.data());
  }
};

std::vector<uint32_t> RowsOf(const RowSet& s) {
  std::vector<uint32_t> rows;
  s.ForEach([&](uint32_t t) { rows.push_back(t); });
  return rows;
}

/// `count` distinct rows below `n`, ascending.
std::vector<uint32_t> RandomRows(uint64_t n, uint64_t count,
                                 std::mt19937_64& gen) {
  std::vector<uint32_t> all(n);
  for (uint32_t t = 0; t < n; ++t) all[t] = t;
  std::shuffle(all.begin(), all.end(), gen);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

TEST(RowSetTest, FormChangesAtAQuarterOfTheWords) {
  for (uint64_t words : {uint64_t{1}, uint64_t{2}, uint64_t{157},
                         uint64_t{160}}) {
    // The fewest rows a bitset holds: 4 * edge >= words > 4 * (edge - 1).
    const uint64_t edge = (words + 3) / 4;
    EXPECT_TRUE(RowSet::IsList(0, words));
    EXPECT_TRUE(RowSet::IsList(edge - 1, words));
    EXPECT_FALSE(RowSet::IsList(edge, words));
    EXPECT_EQ(RowSet::StorageWords(edge, words), words);
    if (edge > 3) EXPECT_EQ(RowSet::StorageWords(3, words), 2u);

    std::vector<uint32_t> rows(edge);
    for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = 31 * i / 2 + i % 2;
    const Stored below({rows.begin(), rows.end() - 1}, words);
    const Stored at(rows, words);
    EXPECT_TRUE(below.set.is_list()) << words;
    EXPECT_FALSE(at.set.is_list()) << words;
    EXPECT_EQ(RowsOf(below.set),
              std::vector<uint32_t>(rows.begin(), rows.end() - 1));
    EXPECT_EQ(RowsOf(at.set), rows);
    // A view of the stored words reads back the same form and rows, and a
    // set written from either form is written in the form its size picks.
    const RowSet again = RowSet::At(at.data.data(), at.set.size(), words);
    EXPECT_FALSE(again.is_list());
    EXPECT_EQ(RowsOf(again), rows);
    std::vector<uint64_t> copy(words);
    EXPECT_FALSE(WriteRowSet(at.set, copy.data()).is_list());
    EXPECT_EQ(copy, std::vector<uint64_t>(at.data.begin(),
                                          at.data.begin() + words));
    // The bitset of all but the last row is kept as a list.
    std::vector<uint64_t> bits(words, 0);
    for (size_t i = 0; i + 1 < rows.size(); ++i) {
      bits[rows[i] / 64] |= uint64_t{1} << (rows[i] % 64);
    }
    std::vector<uint64_t> kept(words);
    const RowSet sparse = WriteRowSet(
        RowSet::Bits(bits.data(), below.set.size(), words), kept.data());
    EXPECT_TRUE(sparse.is_list());
    EXPECT_EQ(RowsOf(sparse), RowsOf(below.set));
  }
}

TEST(RowSetTest, IterationIsAscendingInEitherForm) {
  const uint64_t n = 1000;  // a final partial word of 40 rows
  const uint64_t words = BitsetWords(n);
  const std::vector<uint32_t> rows = {0, 1, 62, 63, 64, 65, 127, 128, 500,
                                      958, 959, 960, 998, 999};
  std::vector<uint64_t> bits(words, 0);
  for (uint32_t t : rows) bits[t / 64] |= uint64_t{1} << (t % 64);
  const RowSet as_list =
      RowSet::List(rows.data(), static_cast<uint32_t>(rows.size()), words);
  const RowSet as_bits =
      RowSet::Bits(bits.data(), static_cast<uint32_t>(rows.size()), words);
  EXPECT_EQ(RowsOf(as_list), rows);
  EXPECT_EQ(RowsOf(as_bits), rows);
  EXPECT_TRUE(RowsOf(RowSet::Bits(bits.data(), 0, 0)).empty());
}

TEST(RowSetTest, IntersectionsOfEveryFormPairMatchSetIntersection) {
  std::mt19937_64 gen(1402);
  // Row spaces ending in a partial word, one word, and whole words.
  for (uint64_t n : {uint64_t{1}, uint64_t{63}, uint64_t{64}, uint64_t{65},
                     uint64_t{1000}, uint64_t{4096}}) {
    const uint64_t words = BitsetWords(n);
    const uint64_t edge = (words + 3) / 4;  // the fewest rows of a bitset
    std::vector<std::vector<uint32_t>> sets = {
        {},
        {0},
        {static_cast<uint32_t>(n - 1)},
        RandomRows(n, edge - 1, gen),
        RandomRows(n, edge, gen),
        RandomRows(n, n / 2, gen),
        RandomRows(n, n, gen),
    };
    if (n > 64) sets.push_back({63, 64});
    for (const auto& a : sets) {
      for (const auto& b : sets) {
        std::vector<uint32_t> want;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(want));
        const Stored sa(a, words);
        const Stored sb(b, words);
        std::vector<uint64_t> out;
        const RowSet got = Intersect(sa.set, sb.set, Kernels(), out);
        const std::string label =
            "n=" + std::to_string(n) + " |a|=" + std::to_string(a.size()) +
            (sa.set.is_list() ? " list" : " bits") +
            " |b|=" + std::to_string(b.size()) +
            (sb.set.is_list() ? " list" : " bits");
        EXPECT_EQ(got.size(), want.size()) << label;
        EXPECT_EQ(got.is_list(), sa.set.is_list() || sb.set.is_list())
            << label;
        EXPECT_EQ(RowsOf(got), want) << label;
      }
    }
  }
}

TEST(RowSetTest, BitsetPopcountsAndListWalksWeighAlikeInTheExactRegime) {
  std::mt19937_64 gen(2026);
  const uint64_t n = 1000;
  const uint64_t words = BitsetWords(n);
  constexpr uint64_t kOneLane = ~uint64_t{0};
  std::vector<double> measure(n);
  std::vector<double> covered(n);
  for (uint64_t t = 0; t < n; ++t) {
    measure[t] = static_cast<double>(gen() % 101);
    covered[t] = static_cast<double>(gen() % 4);
  }
  for (size_t num_planes : {size_t{0}, size_t{7}}) {
    ExactWeigher weigher;
    weigher.words = words;
    weigher.num_planes = num_planes;
    weigher.planes.assign(num_planes * words, 0);
    if (num_planes > 0) {
      Kernels().set_planes(measure.data(), n, 0, num_planes, words,
                           weigher.planes.data());
    }
    weigher.SetLevels(covered, n);
    auto row_measure = [&](uint32_t t) {
      return num_planes == 0 ? 1.0 : measure[t];
    };
    for (uint64_t count : {uint64_t{0}, uint64_t{1}, uint64_t{40},
                           words / 4, words / 4 + 1, uint64_t{600}, n}) {
      const std::vector<uint32_t> rows = RandomRows(n, count, gen);
      std::vector<uint64_t> bits(words, 0);
      for (uint32_t t : rows) bits[t / 64] |= uint64_t{1} << (t % 64);
      const uint32_t size = static_cast<uint32_t>(count);
      const RowSet as_list = RowSet::List(rows.data(), size, words);
      const RowSet as_bits = RowSet::Bits(bits.data(), size, words);
      for (double w : {0.0, 2.0, 3.0, 5.0}) {
        double want_mass = 0;
        double want_marginal = 0;
        for (uint32_t t : rows) {
          want_mass += row_measure(t);
          want_marginal += row_measure(t) * std::max(0.0, w - covered[t]);
        }
        const std::string label = "planes=" + std::to_string(num_planes) +
                                  " rows=" + std::to_string(count) +
                                  " w=" + std::to_string(w);
        const uint64_t mass = weigher.Mass(as_bits, Kernels());
        EXPECT_EQ(static_cast<double>(mass), want_mass) << label;
        EXPECT_EQ(weigher.Marginal(as_bits, w, mass, Kernels()),
                  want_marginal)
            << label;
        for (const RowSet& s : {as_list, as_bits}) {
          double walked_mass = -1;
          EXPECT_EQ(WalkMarginal(s, w, kOneLane, covered.data(), row_measure,
                                 &walked_mass),
                    want_marginal)
              << label << (s.is_list() ? " list" : " bits");
          EXPECT_EQ(walked_mass, want_mass) << label;
          // Lanes only regroup integer sums here.
          EXPECT_EQ(WalkMarginal(s, w, 64, covered.data(), row_measure,
                                 nullptr),
                    want_marginal)
              << label;
        }
      }
    }
  }
}

TEST(RowSetTest, RaisingEitherFormMovesTheSameRows) {
  std::mt19937_64 gen(33);
  const uint64_t n = 700;
  const uint64_t words = BitsetWords(n);
  std::vector<double> covered(n);
  for (double& c : covered) c = static_cast<double>(gen() % 3);
  for (uint64_t count : {uint64_t{5}, uint64_t{300}}) {
    const std::vector<uint32_t> rows = RandomRows(n, count, gen);
    std::vector<uint64_t> bits(words, 0);
    for (uint32_t t : rows) bits[t / 64] |= uint64_t{1} << (t % 64);
    const uint32_t size = static_cast<uint32_t>(count);
    ExactWeigher from_list, from_bits, want;
    for (ExactWeigher* x : {&from_list, &from_bits, &want}) {
      x->words = words;
    }
    from_list.SetLevels(covered, n);
    from_bits.SetLevels(covered, n);
    from_list.Raise(RowSet::List(rows.data(), size, words), 2.0);
    from_bits.Raise(RowSet::Bits(bits.data(), size, words), 2.0);
    std::vector<double> raised = covered;
    for (uint32_t t : rows) raised[t] = std::max(raised[t], 2.0);
    want.SetLevels(raised, n);
    for (const ExactWeigher* got : {&from_list, &from_bits}) {
      EXPECT_EQ(got->level_weights, want.level_weights) << count;
      EXPECT_EQ(got->level_rows, want.level_rows) << count;
    }
  }
}

}  // namespace
}  // namespace smartdd
