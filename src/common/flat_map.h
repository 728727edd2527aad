#ifndef SMARTDD_COMMON_FLAT_MAP_H_
#define SMARTDD_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace smartdd {

/// A 128-bit packed key. Candidate value tuples (and column sets) pack into
/// one of these, so hashing and equality are two-word arithmetic instead of
/// a heap-allocated std::vector walk.
struct Key128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Key128& a, const Key128& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Key128& a, const Key128& b) {
    return !(a == b);
  }
};

inline uint64_t HashKey128(const Key128& k) {
  return HashMix64(k.lo ^ (HashMix64(k.hi) + 0x9E3779B97F4A7C15ULL));
}

/// Open-addressing hash map from Key128 to V with linear probing and a
/// dense, insertion-ordered entry store.
///
/// Layout: `entries_` is a flat vector of (key, value) pairs in insertion
/// order; `slots_` is a power-of-two index table whose cells hold
/// entry-index + 1 (0 = empty). Lookups never allocate; growth re-derives
/// only the 4-byte index cells (no per-entry rehash storage); iteration is
/// a linear scan of `entries_` in insertion order — which makes iteration
/// order deterministic, a property the best-marginal search's tie-breaking
/// and thread-count-independence proofs rely on.
///
/// Value pointers follow std::vector rules: valid until the next insert.
/// Not thread-safe for concurrent mutation; once the map is fully built,
/// concurrent reads and concurrent writes to *distinct* values (addressed
/// by entry index) are safe — the candidate-counting pass exploits this,
/// with many threads counting into disjoint entries of one map.
template <typename V>
class FlatMap {
 public:
  using Entry = std::pair<Key128, V>;

  FlatMap() = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void Reserve(size_t n) {
    entries_.reserve(n);
    size_t needed = SlotCountFor(n);
    if (needed > slots_.size()) Rehash(needed);
  }

  void Clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
  }

  /// Returns (pointer to value, inserted). The pointer is valid until the
  /// next insert (std::vector semantics); hold entry indices across
  /// inserts, not pointers.
  std::pair<V*, bool> FindOrInsert(const Key128& key) {
    if (NeedsGrow()) Rehash(SlotCountFor(entries_.size() + 1));
    size_t i = ProbeStart(key);
    while (slots_[i] != 0) {
      Entry& e = entries_[slots_[i] - 1];
      if (e.first == key) return {&e.second, false};
      i = (i + 1) & mask_;
    }
    entries_.emplace_back(key, V{});
    slots_[i] = static_cast<uint32_t>(entries_.size());
    return {&entries_.back().second, true};
  }

  V* Find(const Key128& key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }
  const V* Find(const Key128& key) const {
    if (slots_.empty()) return nullptr;
    size_t i = ProbeStart(key);
    while (slots_[i] != 0) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.first == key) return &e.second;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  /// Insertion-ordered entry access (for deterministic iteration).
  Entry& entry(size_t i) { return entries_[i]; }
  const Entry& entry(size_t i) const { return entries_[i]; }

  typename std::vector<Entry>::iterator begin() { return entries_.begin(); }
  typename std::vector<Entry>::iterator end() { return entries_.end(); }
  typename std::vector<Entry>::const_iterator begin() const {
    return entries_.begin();
  }
  typename std::vector<Entry>::const_iterator end() const {
    return entries_.end();
  }

 private:
  static constexpr size_t kMinSlots = 16;

  /// Max load factor 0.75 over the slot table.
  static size_t SlotCountFor(size_t n) {
    size_t slots = kMinSlots;
    while (n * 4 >= slots * 3) slots <<= 1;
    return slots;
  }

  bool NeedsGrow() const {
    return slots_.empty() || (entries_.size() + 1) * 4 >= slots_.size() * 3;
  }

  size_t ProbeStart(const Key128& key) const {
    return static_cast<size_t>(HashKey128(key)) & mask_;
  }

  void Rehash(size_t new_slot_count) {
    SMARTDD_DCHECK((new_slot_count & (new_slot_count - 1)) == 0);
    slots_.assign(new_slot_count, 0u);
    mask_ = new_slot_count - 1;
    for (size_t e = 0; e < entries_.size(); ++e) {
      size_t i = ProbeStart(entries_[e].first);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<uint32_t>(e + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

/// Packs value tuples over a fixed column set into Key128s.
///
/// Each column contributes bit_width(dictionary size) bits, so realistic
/// rule arities (e.g. 12 columns of ≤1024 values) pack exactly. When the
/// widths sum past 128 bits the packer degrades to a two-lane 128-bit hash
/// of the tuple: lookups stay allocation-free and deterministic, at a
/// collision risk of ~n²/2¹²⁸ — negligible against any physical candidate
/// count (and identical across thread counts, so differential tests are
/// unaffected).
class TuplePacker {
 public:
  TuplePacker() = default;

  /// `bits[i]` is the bit width of position i's code space.
  explicit TuplePacker(const std::vector<uint8_t>& bits) {
    size_t total = 0;
    for (uint8_t b : bits) total += b;
    exact_ = total <= 128;
    bits_.assign(bits.begin(), bits.end());
    if (!bits_.empty()) last_shift_ = total - bits_.back();
  }

  bool exact() const { return exact_; }

  Key128 Pack(const uint32_t* vals, size_t arity) const {
    SMARTDD_DCHECK(arity == bits_.size());
    Key128 key;
    if (exact_) {
      size_t shift = 0;
      for (size_t i = 0; i < arity; ++i) {
        Place(key, vals[i], shift, bits_[i]);
        shift += bits_[i];
      }
    } else {
      key.lo = HashCodes(vals, arity);
      key.hi = HashMix64(key.lo ^ 0xA24BAED4963EE407ULL);
      for (size_t i = 0; i < arity; ++i) {
        key.hi = HashCombine(key.hi, vals[i]);
      }
    }
    return key;
  }

  /// Pack of a tuple whose last value is `last`, given `prefix`, the Pack
  /// of the same tuple with its last value 0: one prefix then serves every
  /// last value at one OR. Exact packers only.
  Key128 PackLast(Key128 prefix, uint32_t last) const {
    SMARTDD_DCHECK(exact_ && !bits_.empty());
    Place(prefix, last, last_shift_, bits_.back());
    return prefix;
  }

  /// The inverse: the Pack of the tuple packed as `key` with its last value
  /// 0. The last position is the topmost field, so this clears every bit
  /// from its offset up. Exact packers only.
  Key128 Prefix(Key128 key) const {
    SMARTDD_DCHECK(exact_ && !bits_.empty());
    if (last_shift_ >= 64) {
      key.hi &= (uint64_t{1} << (last_shift_ - 64)) - 1;
    } else {
      key.lo &= (uint64_t{1} << last_shift_) - 1;
      key.hi = 0;
    }
    return key;
  }

 private:
  /// ORs a `bits`-wide value into the key at bit `shift`; a value that
  /// straddles bit 64 lands in both lanes.
  static void Place(Key128& key, uint64_t v, size_t shift, size_t bits) {
    if (shift < 64) {
      key.lo |= v << shift;
      if (shift + bits > 64 && shift != 0) key.hi |= v >> (64 - shift);
    } else {
      key.hi |= v << (shift - 64);
    }
  }

  std::vector<uint8_t> bits_;
  size_t last_shift_ = 0;  // bit offset of the last position
  bool exact_ = true;
};

/// Bit width needed to store codes in [0, cardinality).
inline uint8_t CodeBitWidth(size_t cardinality) {
  uint8_t bits = 1;
  while ((size_t{1} << bits) < cardinality) ++bits;
  return bits;
}

}  // namespace smartdd

#endif  // SMARTDD_COMMON_FLAT_MAP_H_
