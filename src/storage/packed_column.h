#ifndef SMARTDD_STORAGE_PACKED_COLUMN_H_
#define SMARTDD_STORAGE_PACKED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace smartdd {

/// Physical layout class of a column's codes. A column starts kUnpacked
/// (raw u32 vector, append-able) and is converted to the narrowest class
/// that holds ceil(log2(dict_size)) bits when the owning Table freezes.
enum class PackedWidth : uint8_t {
  kUnpacked,  ///< building representation: raw uint32_t codes
  kConst,     ///< 0 bits — dictionary of size 1, every code is 0
  kSub,       ///< 1, 2, or 4 bits, tight bit-packing in 64-bit words
  k8,         ///< one byte per code
  k16,        ///< two bytes per code
  k32,        ///< four bytes per code (dictionaries wider than 16 bits)
};

/// Rows per scan granule: the unit of the on-disk table layout, of the
/// blocks a scan pass hands out, and the grid shard and chunk boundaries
/// align to. 4096 codes end on a byte boundary at every width class.
inline constexpr uint64_t kGranuleRows = 4096;

/// Spare bytes every packed payload carries past its last code, so that
/// (a) the sub-byte 64-bit-window read and (b) the SIMD 4-byte gathers of
/// the k8/k16 paths never touch unmapped memory at the tail.
inline constexpr size_t kPackedPadBytes = 8;

/// A trivially copyable, non-owning reader over a PackedColumn's payload:
/// the hot loops hoist one of these per column and decode inline, and the
/// SIMD kernels (core/scan_kernels) switch on `width` to pick a lane
/// layout. The owning column must outlive the ref.
struct PackedRef {
  const void* data = nullptr;
  uint64_t n = 0;            ///< number of codes
  PackedWidth width = PackedWidth::kUnpacked;
  uint8_t bits = 32;         ///< logical code width (32 while unpacked)

  /// Random access. Sub-byte widths are powers of two (1/2/4 bits), so a
  /// code always lives entirely inside one byte: a single byte load, shift,
  /// and mask.
  [[nodiscard]] inline uint32_t Get(uint64_t i) const {
    switch (width) {
      case PackedWidth::kUnpacked:
      case PackedWidth::k32:
        return static_cast<const uint32_t*>(data)[i];
      case PackedWidth::k8:
        return static_cast<const uint8_t*>(data)[i];
      case PackedWidth::k16:
        return static_cast<const uint16_t*>(data)[i];
      case PackedWidth::kConst:
        return 0;
      case PackedWidth::kSub: {
        const uint64_t bit = i * bits;
        return (static_cast<const uint8_t*>(data)[bit >> 3] >> (bit & 7)) &
               ((uint32_t{1} << bits) - 1);
      }
    }
    return 0;
  }
};

/// One column's dictionary codes, bit-packed to ceil(log2(dict_size)) bits
/// (rounded up to a power of two below a byte: 1, 2, 4, 8, 16, or 32) once
/// frozen. Building appends into a raw u32 vector; Freeze(dict_size)
/// converts in place to the narrowest width class (idempotent; appends are
/// rejected afterwards). Unfrozen columns keep full read support, so
/// derived tables that grow forever (samples) simply never freeze.
class PackedColumn {
 public:
  [[nodiscard]] uint64_t size() const { return size_; }
  [[nodiscard]] bool frozen() const { return width_ != PackedWidth::kUnpacked; }
  [[nodiscard]] PackedWidth width() const { return width_; }
  /// Logical code width after freeze (32 while unpacked, 0 for kConst).
  [[nodiscard]] uint8_t bits() const { return bits_; }

  /// Resident payload bytes of the current representation (includes the
  /// small over-read padding the sub-byte and SIMD gather paths rely on).
  [[nodiscard]] size_t byte_size() const;

  [[nodiscard]] PackedRef ref() const {
    PackedRef r;
    r.n = size_;
    r.width = width_;
    r.bits = bits_;
    switch (width_) {
      case PackedWidth::kUnpacked:
      case PackedWidth::k32:
        r.data = raw_.data();
        break;
      case PackedWidth::k8:
        r.data = b8_.data();
        break;
      case PackedWidth::k16:
        r.data = b16_.data();
        break;
      case PackedWidth::kSub:
        r.data = words_.data();
        break;
      case PackedWidth::kConst:
        r.data = nullptr;
        break;
    }
    return r;
  }

  [[nodiscard]] uint32_t Get(uint64_t i) const { return ref().Get(i); }

  /// Width class and logical bits Freeze picks for a dictionary of
  /// `dict_size` values: a pure function of the dictionary size.
  struct Layout {
    PackedWidth width;
    uint8_t bits;
  };
  [[nodiscard]] static Layout LayoutFor(size_t dict_size);

  /// Payload bytes of `n` codes at `layout`, without the tail padding.
  [[nodiscard]] static size_t PayloadBytes(Layout layout, uint64_t n);

  /// An unfrozen column holding `codes`.
  static PackedColumn FromCodes(std::vector<uint32_t> codes) {
    PackedColumn col;
    col.size_ = codes.size();
    col.raw_ = std::move(codes);
    return col;
  }

  /// A column of `n` codes, code i being code row_at(i) of this one, in
  /// this column's representation: its width class and bits, which a
  /// frozen column fixed at its first Freeze, whatever its dictionary has
  /// grown to since. An unfrozen column copies to raw codes.
  template <typename RowAt>
  [[nodiscard]] PackedColumn CopyRows(uint64_t n, RowAt row_at) const;

  /// Appends one code. Only legal before Freeze.
  void Append(uint32_t code) {
    if (width_ != PackedWidth::kUnpacked) FailFrozenAppend();
    raw_.push_back(code);
    ++size_;
  }

  void Reserve(uint64_t n) {
    if (width_ == PackedWidth::kUnpacked) raw_.reserve(n);
  }

  /// Packs the codes to ceil(log2(dict_size)) bits. Every stored code must
  /// be < dict_size (codes come from the column's dictionary, so this holds
  /// by construction). Idempotent: freezing a frozen column is a no-op —
  /// the width was fixed by the first freeze, which is what keeps slices of
  /// frozen tables byte-compatible with their parent even if the shared
  /// dictionary grows later.
  void Freeze(size_t dict_size);

 private:
  [[noreturn]] static void FailFrozenAppend();

  PackedWidth width_ = PackedWidth::kUnpacked;
  uint8_t bits_ = 32;
  uint64_t size_ = 0;
  std::vector<uint32_t> raw_;    // kUnpacked / k32
  std::vector<uint8_t> b8_;      // k8   (padded: SIMD gathers read 4 bytes)
  std::vector<uint16_t> b16_;    // k16  (padded likewise)
  std::vector<uint64_t> words_;  // kSub (padded: 64-bit window reads)
};

template <typename RowAt>
PackedColumn PackedColumn::CopyRows(uint64_t n, RowAt row_at) const {
  PackedColumn out;
  out.width_ = width_;
  out.bits_ = bits_;
  out.size_ = n;
  switch (width_) {
    case PackedWidth::kUnpacked:
    case PackedWidth::k32:
      out.raw_.resize(n);
      for (uint64_t i = 0; i < n; ++i) out.raw_[i] = raw_[row_at(i)];
      break;
    case PackedWidth::k16:
      out.b16_.resize(n + kPackedPadBytes / sizeof(uint16_t));
      for (uint64_t i = 0; i < n; ++i) out.b16_[i] = b16_[row_at(i)];
      break;
    case PackedWidth::k8:
      out.b8_.resize(n + kPackedPadBytes);
      for (uint64_t i = 0; i < n; ++i) out.b8_[i] = b8_[row_at(i)];
      break;
    case PackedWidth::kSub: {
      // 64 / bits codes fill each output word; a code never straddles a
      // word, in the source or in the copy.
      const uint64_t per_word = 64 / bits_;
      const uint64_t mask = (uint64_t{1} << bits_) - 1;
      out.words_.assign(
          (n * bits_ + 63) / 64 + kPackedPadBytes / sizeof(uint64_t), 0u);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t src = uint64_t{row_at(i)} * bits_;
        const uint64_t code = (words_[src >> 6] >> (src & 63)) & mask;
        out.words_[i / per_word] |= code << ((i % per_word) * bits_);
      }
      break;
    }
    case PackedWidth::kConst:
      break;
  }
  return out;
}

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_PACKED_COLUMN_H_
