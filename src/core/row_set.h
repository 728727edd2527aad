#ifndef SMARTDD_CORE_ROW_SET_H_
#define SMARTDD_CORE_ROW_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/scan_kernels.h"

namespace smartdd {

/// Words of a bitset over `rows` rows: bit t % 64 of word t / 64 is row t.
constexpr uint64_t BitsetWords(uint64_t rows) { return (rows + 63) / 64; }

/// A set of global row ids in a row space of `words` bitset words, the one
/// cover type of the marginal finder. It is held in one of two forms: an
/// ascending list of 32-bit row ids, or a bitset of `words` words. A set
/// the finder keeps takes the form IsList picks from its size and the row
/// space (see WriteRowSet); the AND of two bitsets stays a bitset until it
/// is kept. Both forms visit rows in ascending order. A RowSet is a view:
/// its rows live in an arena or buffer owned elsewhere.
class RowSet {
 public:
  /// Whether a set of `count` rows is held as a list: while its 4-byte rows
  /// take under an eighth of the bitset's 8-byte words. The bytes alone
  /// would switch at 2 * words rows, but a list is slower to count than a
  /// bitset well below that: on the e2e explore workload (views of 313
  /// words, 4-core VM) lists of up to 2 * words rows cost 24-42% more CPU
  /// per request than the bitsets did, mostly in turning AND results into
  /// lists (about 1 us each, against 0.1-0.3 us for the AND), while lists
  /// of fewer than words / 4 rows cost none.
  static constexpr bool IsList(uint64_t count, uint64_t words) {
    return 4 * count < words;
  }
  /// The 64-bit words the form IsList picks takes for `count` rows.
  static constexpr uint64_t StorageWords(uint64_t count, uint64_t words) {
    return IsList(count, words) ? (count + 1) / 2 : words;
  }

  RowSet() = default;
  /// `count` ascending rows.
  static RowSet List(const uint32_t* rows, uint32_t count, uint64_t words) {
    return RowSet(rows, count, words, true);
  }
  /// A bitset of `words` words with `count` bits set.
  static RowSet Bits(const uint64_t* bits, uint32_t count, uint64_t words) {
    return RowSet(bits, count, words, false);
  }
  /// The set of `count` rows held at `data` in the form IsList picks.
  static RowSet At(const uint64_t* data, uint32_t count, uint64_t words) {
    return RowSet(data, count, words, IsList(count, words));
  }

  bool is_list() const { return list_; }
  uint32_t size() const { return count_; }
  uint64_t words() const { return words_; }
  const uint32_t* rows() const { return static_cast<const uint32_t*>(data_); }
  const uint64_t* bits() const { return static_cast<const uint64_t*>(data_); }

  /// Calls fn(row) for every row, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (list_) {
      for (uint32_t i = 0; i < count_; ++i) fn(rows()[i]);
      return;
    }
    for (uint64_t w = 0; w < words_; ++w) {
      for (uint64_t x = bits()[w]; x != 0; x &= x - 1) {
        fn(static_cast<uint32_t>(w * 64 + std::countr_zero(x)));
      }
    }
  }

 private:
  RowSet(const void* data, uint32_t count, uint64_t words, bool list)
      : data_(data), count_(count), words_(words), list_(list) {}

  const void* data_ = nullptr;
  uint32_t count_ = 0;
  uint64_t words_ = 0;
  bool list_ = true;
};

/// Writes the rows of `s` to `out` in the form IsList picks for their
/// number (StorageWords(s.size(), s.words()) words) and returns the set
/// written there.
RowSet WriteRowSet(const RowSet& s, uint64_t* out);

/// The rows in both a and b, two sets over the same row space, held in
/// `out` (grown to `words` words), which must hold neither. A list meets a
/// list by merge and a bitset by one bit test per row, and the result is
/// a list; two bitsets meet by and_store, and the result is a bitset. A
/// list must hold fewer than 2 * words rows, as every list IsList picks
/// and every list an intersection makes does.
RowSet Intersect(const RowSet& a, const RowSet& b, const ScanKernels& kern,
                 std::vector<uint64_t>& out);

/// Walks the rows of `s` in ascending order, adding each row's measure
/// m(t) to the mass and m(t) * (w - covered[t])^+ to the marginal: in row
/// order within each `lane_rows`-row lane of the row space, the lane sums
/// then in lane order (a lane without rows adds nothing). Returns the
/// marginal, and the mass into *mass when set. `measure(t)` is row t's
/// measure. The sums depend only on the rows, never on the form.
template <typename Measure>
double WalkMarginal(const RowSet& s, double w, uint64_t lane_rows,
                    const double* covered, Measure&& measure, double* mass) {
  double marginal = 0;
  double lane = 0;
  double sum = 0;
  uint64_t lane_end = 0;
  s.ForEach([&](uint32_t t) {
    if (t >= lane_end) {
      marginal += lane;
      lane = 0;
      lane_end = (t / lane_rows + 1) * lane_rows;
    }
    const double m = measure(t);
    sum += m;
    lane += m * std::max(0.0, w - covered[t]);
  });
  if (mass != nullptr) *mass = sum;
  return marginal + lane;
}

/// Weighs bitsets by popcounts in the finder's exact regime, where each
/// row's measure is a non-negative integer held in `num_planes` bit-planes
/// (none under Count, where every row weighs 1) and each row's covered
/// weight is an integer, held here as levels: the distinct weights
/// ascending, each with the bitset of the rows at that weight. Every
/// figure is an integer below 2^53 and so exact in a double in any order
/// of addition: it equals a walk's sum over the same rows bit for bit.
struct ExactWeigher {
  uint64_t words = 0;
  size_t num_planes = 0;
  std::vector<uint64_t> planes;  // plane p at word p * words
  std::vector<double> level_weights;
  std::vector<std::vector<uint64_t>> level_rows;

  /// Sets the levels from one covered weight per row of `rows` rows, or
  /// all 0.0 when `covered` is empty.
  void SetLevels(const std::vector<double>& covered, uint64_t rows);

  /// Moves the rows of `s` below weight w up to level w: the covered-weight
  /// update cw(t) = max(cw(t), w) over the set.
  void Raise(const RowSet& s, double w);

  /// The sum of the measure over the rows of `s`: its size under Count,
  /// otherwise `s` must be a bitset.
  uint64_t Mass(const RowSet& s, const ScanKernels& kern) const;

  /// The sum over the rows t of `s` of measure(t) * (w - cw(t))^+, where
  /// `mass` is Mass(s) and cw(t) the weight of t's level. While there is
  /// one level this is (w - l)^+ * mass, for a set of either form;
  /// otherwise `s` must be a bitset.
  double Marginal(const RowSet& s, double w, uint64_t mass,
                  const ScanKernels& kern) const;
};

}  // namespace smartdd

#endif  // SMARTDD_CORE_ROW_SET_H_
