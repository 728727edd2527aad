#include "storage/packed_column.h"

#include <cstdlib>

#include "common/flat_map.h"
#include "common/logging.h"

namespace smartdd {

void PackedColumn::FailFrozenAppend() {
  SMARTDD_CHECK(false)
      << "PackedColumn::Append on a frozen column (freeze a table only after "
         "all rows are loaded)";
  std::abort();  // unreachable: the failed check aborts
}

size_t PackedColumn::byte_size() const {
  switch (width_) {
    case PackedWidth::kUnpacked:
    case PackedWidth::k32:
      return raw_.size() * sizeof(uint32_t);
    case PackedWidth::k8:
      return b8_.size();
    case PackedWidth::k16:
      return b16_.size() * sizeof(uint16_t);
    case PackedWidth::kSub:
      return words_.size() * sizeof(uint64_t);
    case PackedWidth::kConst:
      return 0;
  }
  return 0;
}

PackedColumn::Layout PackedColumn::LayoutFor(size_t dict_size) {
  const uint8_t bits = dict_size <= 1 ? 0 : CodeBitWidth(dict_size);
  if (bits == 0) return {PackedWidth::kConst, 0};
  // Wide dictionaries keep the raw u32 payload: already the right width.
  if (bits > 16) return {PackedWidth::k32, 32};
  if (bits > 8) return {PackedWidth::k16, 16};
  // Sub-byte widths are rounded up to a power of two (1, 2, 4) so codes
  // never straddle a byte — the property the SWAR counting kernels and the
  // single-byte Get depend on. 5..7 bits round to a whole byte.
  if (bits > 4) return {PackedWidth::k8, 8};
  return {PackedWidth::kSub, static_cast<uint8_t>(bits == 3 ? 4 : bits)};
}

size_t PackedColumn::PayloadBytes(Layout layout, uint64_t n) {
  switch (layout.width) {
    case PackedWidth::kConst:
      return 0;
    case PackedWidth::kSub:
      return static_cast<size_t>((n * layout.bits + 7) / 8);
    case PackedWidth::k8:
      return static_cast<size_t>(n);
    case PackedWidth::k16:
      return static_cast<size_t>(n) * sizeof(uint16_t);
    case PackedWidth::kUnpacked:
    case PackedWidth::k32:
      return static_cast<size_t>(n) * sizeof(uint32_t);
  }
  return 0;
}

void PackedColumn::Freeze(size_t dict_size) {
  if (width_ != PackedWidth::kUnpacked) return;  // idempotent
  const Layout layout = LayoutFor(dict_size);
  bits_ = layout.bits;
  switch (layout.width) {
    case PackedWidth::kConst:
      raw_.clear();
      break;
    case PackedWidth::k32:
      break;
    case PackedWidth::k16:
      b16_.reserve(size_ + kPackedPadBytes / sizeof(uint16_t));
      b16_.assign(raw_.begin(), raw_.end());
      b16_.resize(size_ + kPackedPadBytes / sizeof(uint16_t), 0);
      raw_.clear();
      break;
    case PackedWidth::k8:
      b8_.reserve(size_ + kPackedPadBytes);
      b8_.assign(raw_.begin(), raw_.end());
      b8_.resize(size_ + kPackedPadBytes, 0);
      raw_.clear();
      break;
    case PackedWidth::kSub:
      // 1, 2, or 4 bits: tight pack into 64-bit words, little-endian bit
      // order. Because bits divides 8 a code never crosses a byte (or word)
      // boundary.
      words_.assign(
          (size_ * bits_ + 63) / 64 + kPackedPadBytes / sizeof(uint64_t), 0u);
      for (uint64_t i = 0; i < size_; ++i) {
        const uint64_t bit = i * bits_;
        words_[bit >> 6] |= uint64_t{raw_[i]} << (bit & 63);
      }
      raw_.clear();
      break;
    case PackedWidth::kUnpacked:
      break;
  }
  width_ = layout.width;
  raw_.shrink_to_fit();
}

}  // namespace smartdd
