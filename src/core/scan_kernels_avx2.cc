// The only translation unit compiled with -mavx2 (see CMakeLists.txt). The
// guard below keeps it an empty stub on toolchains/targets without AVX2, so
// the scalar path is always a working build.

#include "core/scan_kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace smartdd {
namespace {

// i32gather indexes are signed 32-bit, applied to the base at the given
// byte scale. These guards keep every computed offset in int32 range; the
// kernels fall back to scalar when they fail, which in practice never
// happens for in-memory drill-down tables.
bool GatherSafe(const PackedRef& col) {
  switch (col.width) {
    case PackedWidth::kSub:
      return col.n * col.bits < (uint64_t{1} << 31);
    case PackedWidth::k16:
      return col.n < (uint64_t{1} << 30);
    default:
      return col.n < (uint64_t{1} << 31);
  }
}

void UnpackAvx2(PackedRef col, uint64_t begin, uint64_t end, uint32_t* out) {
  const uint64_t n = end - begin;
  switch (col.width) {
    case PackedWidth::kUnpacked:
    case PackedWidth::k32:
      std::memcpy(out, static_cast<const uint32_t*>(col.data) + begin,
                  n * sizeof(uint32_t));
      return;
    case PackedWidth::kConst:
      std::memset(out, 0, n * sizeof(uint32_t));
      return;
    case PackedWidth::k8: {
      const uint8_t* p = static_cast<const uint8_t*>(col.data) + begin;
      uint64_t i = 0;
      for (; i + 8 <= n; i += 8) {
        const __m128i b =
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_cvtepu8_epi32(b));
      }
      for (; i < n; ++i) out[i] = p[i];
      return;
    }
    case PackedWidth::k16: {
      const uint16_t* p = static_cast<const uint16_t*>(col.data) + begin;
      uint64_t i = 0;
      for (; i + 8 <= n; i += 8) {
        const __m128i b =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_cvtepu16_epi32(b));
      }
      for (; i < n; ++i) out[i] = p[i];
      return;
    }
    case PackedWidth::kSub: {
      if (!GatherSafe(col)) {
        for (uint64_t i = begin; i < end; ++i) *out++ = col.Get(i);
        return;
      }
      // Per lane: read the 4-byte window at the code's byte offset (the
      // column is padded past the payload, so the tail window is mapped),
      // shift by the in-byte bit offset, mask to `bits`. shift+bits <= 14,
      // so a 4-byte window always contains the whole code.
      const uint8_t* bytes = static_cast<const uint8_t*>(col.data);
      const uint32_t bits = col.bits;
      const __m256i vmask = _mm256_set1_epi32((1 << bits) - 1);
      const __m256i seven = _mm256_set1_epi32(7);
      const __m256i lane_bits = _mm256_setr_epi32(
          0, static_cast<int>(bits), static_cast<int>(2 * bits),
          static_cast<int>(3 * bits), static_cast<int>(4 * bits),
          static_cast<int>(5 * bits), static_cast<int>(6 * bits),
          static_cast<int>(7 * bits));
      uint64_t i = 0;
      for (; i + 8 <= n; i += 8) {
        const __m256i bit0 =
            _mm256_set1_epi32(static_cast<int>((begin + i) * bits));
        const __m256i bitpos = _mm256_add_epi32(bit0, lane_bits);
        const __m256i byteoff = _mm256_srli_epi32(bitpos, 3);
        const __m256i shift = _mm256_and_si256(bitpos, seven);
        const __m256i words = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(bytes), byteoff, 1);
        const __m256i vals =
            _mm256_and_si256(_mm256_srlv_epi32(words, shift), vmask);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vals);
      }
      for (; i < n; ++i) out[i] = col.Get(begin + i);
      return;
    }
  }
}

void MaskAllZero(uint8_t* mask, size_t n, bool first) {
  // A never-true predicate zeroes the block whether composing or not.
  (void)first;
  std::memset(mask, 0, n);
}

/// 32-values-per-iteration equality mask over raw u32 codes. cmpeq_epi32
/// yields 0/-1 dwords; two signed saturating packs narrow -1 -> 0xFF, and
/// the final cross-lane permute undoes the 128-bit-lane interleave of the
/// packs so mask bytes land in row order.
void MatchEqU32(const uint32_t* p, size_t n, uint32_t want, uint8_t* mask,
                bool first) {
  const __m256i w = _mm256_set1_epi32(static_cast<int>(want));
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i c0 = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), w);
    const __m256i c1 = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 8)), w);
    const __m256i c2 = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 16)), w);
    const __m256i c3 = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 24)), w);
    const __m256i p01 = _mm256_packs_epi32(c0, c1);
    const __m256i p23 = _mm256_packs_epi32(c2, c3);
    __m256i b =
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), perm);
    if (!first) {
      b = _mm256_and_si256(
          b, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i), b);
  }
  for (; i < n; ++i) {
    const uint8_t m = p[i] == want ? 0xFFu : 0u;
    mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
  }
}

void MatchEqAvx2(PackedRef col, uint64_t begin, size_t n, uint32_t want,
                 uint8_t* mask, bool first) {
  switch (col.width) {
    case PackedWidth::kConst: {
      const uint8_t m = want == 0 ? 0xFFu : 0u;
      if (first) {
        std::memset(mask, m, n);
      } else if (m == 0) {
        std::memset(mask, 0, n);
      }
      return;
    }
    case PackedWidth::k8: {
      if (want > 0xFF) return MaskAllZero(mask, n, first);
      const uint8_t* p = static_cast<const uint8_t*>(col.data) + begin;
      const __m256i w = _mm256_set1_epi8(static_cast<char>(want));
      size_t i = 0;
      for (; i + 32 <= n; i += 32) {
        __m256i m = _mm256_cmpeq_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), w);
        if (!first) {
          m = _mm256_and_si256(
              m,
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i), m);
      }
      for (; i < n; ++i) {
        const uint8_t m = p[i] == want ? 0xFFu : 0u;
        mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
      }
      return;
    }
    case PackedWidth::k16: {
      if (want > 0xFFFF) return MaskAllZero(mask, n, first);
      const uint16_t* p = static_cast<const uint16_t*>(col.data) + begin;
      const __m256i w = _mm256_set1_epi16(static_cast<short>(want));
      size_t i = 0;
      for (; i + 32 <= n; i += 32) {
        const __m256i c0 = _mm256_cmpeq_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), w);
        const __m256i c1 = _mm256_cmpeq_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 16)),
            w);
        // packs interleaves the 128-bit lanes; 0xD8 restores row order.
        __m256i b = _mm256_permute4x64_epi64(_mm256_packs_epi16(c0, c1), 0xD8);
        if (!first) {
          b = _mm256_and_si256(
              b,
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i), b);
      }
      for (; i < n; ++i) {
        const uint8_t m = p[i] == want ? 0xFFu : 0u;
        mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
      }
      return;
    }
    case PackedWidth::kUnpacked:
    case PackedWidth::k32:
      MatchEqU32(static_cast<const uint32_t*>(col.data) + begin, n, want,
                 mask, first);
      return;
    case PackedWidth::kSub: {
      if (want > ((uint32_t{1} << col.bits) - 1)) {
        return MaskAllZero(mask, n, first);
      }
      // Decode block-wise, then reuse the u32 compare.
      uint32_t buf[kScanBlockRows];
      size_t done = 0;
      while (done < n) {
        const size_t chunk =
            n - done < kScanBlockRows ? n - done : kScanBlockRows;
        UnpackAvx2(col, begin + done, begin + done + chunk, buf);
        MatchEqU32(buf, chunk, want, mask + done, first);
        done += chunk;
      }
      return;
    }
  }
}

/// SWAR histogram for the sub-byte widths: the packed payload is counted
/// 64 bits (16/32/64 codes) at a time with bit-plane masks and hardware
/// popcounts, never decoding a single code. Works because Freeze rounds
/// sub-byte widths to powers of two, so each 64-bit word holds a whole
/// number of codes and no code straddles a word. Integer-exact, so the
/// counts match the scalar histogram bit for bit.
void CountCodesAvx2(PackedRef col, uint64_t begin, uint64_t end,
                    size_t dict_size, uint32_t* counts) {
  if (col.width != PackedWidth::kSub) {
    internal::GetScalarKernels().count_codes(col, begin, end, dict_size,
                                             counts);
    return;
  }
  const uint64_t* words = static_cast<const uint64_t*>(col.data);
  const unsigned bits = col.bits;
  const uint64_t cpw = 64 / bits;  // codes per 64-bit word
  uint64_t local[16] = {0};

  // Scalar head up to a word boundary, SWAR over whole words, scalar tail.
  uint64_t i = begin;
  const uint64_t head = std::min(end, (begin + cpw - 1) / cpw * cpw);
  for (; i < head; ++i) ++local[col.Get(i)];
  const uint64_t w0 = i / cpw;
  const uint64_t w1 = end / cpw;
  switch (bits) {
    case 1: {
      uint64_t ones = 0;
      for (uint64_t w = w0; w < w1; ++w) {
        ones += static_cast<unsigned>(__builtin_popcountll(words[w]));
      }
      local[1] += ones;
      local[0] += (w1 - w0) * 64 - ones;
      break;
    }
    case 2: {
      constexpr uint64_t kPair = 0x5555555555555555ull;
      for (uint64_t w = w0; w < w1; ++w) {
        const uint64_t x = words[w];
        const uint64_t b0 = x & kPair;         // low bit of each 2-bit code
        const uint64_t b1 = (x >> 1) & kPair;  // high bit
        const uint64_t c3 =
            static_cast<unsigned>(__builtin_popcountll(b0 & b1));
        const uint64_t c1 =
            static_cast<unsigned>(__builtin_popcountll(b0)) - c3;
        const uint64_t c2 =
            static_cast<unsigned>(__builtin_popcountll(b1)) - c3;
        local[0] += 32 - c1 - c2 - c3;
        local[1] += c1;
        local[2] += c2;
        local[3] += c3;
      }
      break;
    }
    default: {  // bits == 4
      constexpr uint64_t kNib = 0x1111111111111111ull;
      for (uint64_t w = w0; w < w1; ++w) {
        const uint64_t x = words[w];
        // Bit planes of the 16 nibbles, and their in-plane complements.
        const uint64_t a0 = x & kNib, a1 = (x >> 1) & kNib;
        const uint64_t a2 = (x >> 2) & kNib, a3 = (x >> 3) & kNib;
        const uint64_t n0 = a0 ^ kNib, n1 = a1 ^ kNib;
        const uint64_t n2 = a2 ^ kNib, n3 = a3 ^ kNib;
        // Match masks for the low / high 2 bits; value v matches where
        // lo[v & 3] & hi[v >> 2] has a 1 (at most one per nibble).
        const uint64_t lo[4] = {n0 & n1, a0 & n1, n0 & a1, a0 & a1};
        const uint64_t hi[4] = {n2 & n3, a2 & n3, n2 & a3, a2 & a3};
        for (unsigned v = 0; v < 16; ++v) {
          local[v] += static_cast<unsigned>(
              __builtin_popcountll(lo[v & 3] & hi[v >> 2]));
        }
      }
      break;
    }
  }
  for (i = std::max(i, w1 * cpw); i < end; ++i) ++local[col.Get(i)];

  // Codes >= dict_size never occur (their tallies are zero); the guard just
  // keeps the writes inside the caller's dict-sized array.
  const size_t top = std::min<size_t>(dict_size, size_t{1} << bits);
  for (size_t v = 0; v < top; ++v) {
    counts[v] += static_cast<uint32_t>(local[v]);
  }
}

// -mavx2 implies POPCNT, so __builtin_popcountll is one instruction here.
// Four accumulators keep the popcounts from serializing on one register.
uint64_t AndStoreAvx2(const uint64_t* a, const uint64_t* b, size_t n,
                      uint64_t* out) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i] = a[i] & b[i];
    out[i + 1] = a[i + 1] & b[i + 1];
    out[i + 2] = a[i + 2] & b[i + 2];
    out[i + 3] = a[i + 3] & b[i + 3];
    c0 += __builtin_popcountll(out[i]);
    c1 += __builtin_popcountll(out[i + 1]);
    c2 += __builtin_popcountll(out[i + 2]);
    c3 += __builtin_popcountll(out[i + 3]);
  }
  for (; i < n; ++i) {
    out[i] = a[i] & b[i];
    c0 += __builtin_popcountll(out[i]);
  }
  return c0 + c1 + c2 + c3;
}

uint64_t AndPopcountAvx2(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += __builtin_popcountll(a[i] & b[i]);
    c1 += __builtin_popcountll(a[i + 1] & b[i + 1]);
    c2 += __builtin_popcountll(a[i + 2] & b[i + 2]);
    c3 += __builtin_popcountll(a[i + 3] & b[i + 3]);
  }
  for (; i < n; ++i) c0 += __builtin_popcountll(a[i] & b[i]);
  return c0 + c1 + c2 + c3;
}

// Four words of a & b at a time, ANDed with each plane in turn and counted
// by nibble lookups (vpshufb), which runs on more ports than popcnt; each
// plane's four per-word counts are shifted by the plane's bit and added in
// 64-bit lanes.
uint64_t AndMassAvx2(const uint64_t* a, const uint64_t* b,
                     const uint64_t* planes, size_t num_planes, size_t n) {
  if (num_planes == 0) return AndPopcountAvx2(a, b, n);
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const uint64_t* q = planes + i;
    for (size_t p = 0; p < num_planes; ++p, q += n) {
      const __m256i y = _mm256_and_si256(
          x, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q)));
      const __m256i bytes = _mm256_add_epi8(
          _mm256_shuffle_epi8(lut, _mm256_and_si256(y, nibble)),
          _mm256_shuffle_epi8(
              lut, _mm256_and_si256(_mm256_srli_epi16(y, 4), nibble)));
      acc = _mm256_add_epi64(
          acc, _mm256_sll_epi64(_mm256_sad_epu8(bytes, zero),
                                _mm_cvtsi32_si128(static_cast<int>(p))));
    }
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t mass = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const uint64_t x = a[i] & b[i];
    for (size_t p = 0; p < num_planes; ++p) {
      mass += static_cast<uint64_t>(
                  __builtin_popcountll(x & planes[p * n + i]))
              << p;
    }
  }
  return mass;
}

void SetPlanesAvx2(const double* values, uint64_t n, uint64_t first,
                   size_t num_planes, size_t stride, uint64_t* planes) {
  auto one = [&](uint64_t i) {
    const uint64_t m = static_cast<uint64_t>(values[i]);
    const uint64_t row = first + i;
    uint64_t* word = planes + (row >> 6);
    for (size_t p = 0; p < num_planes; ++p) {
      word[p * stride] |= ((m >> p) & 1) << (row & 63);
    }
  };
  uint64_t i = 0;
  for (; i < n && ((first + i) & 7) != 0; ++i) one(i);
  // Eight rows at a time from a byte boundary: the values as 32-bit
  // integers, and per plane the sign bits after shifting bit p to the top
  // are the plane's byte (x86 is little-endian, so byte b of a plane holds
  // rows 8b .. 8b + 7).
  uint8_t* bytes = reinterpret_cast<uint8_t*>(planes);
  for (; i + 8 <= n; i += 8) {
    const __m128i lo = _mm256_cvttpd_epi32(_mm256_loadu_pd(values + i));
    const __m128i hi = _mm256_cvttpd_epi32(_mm256_loadu_pd(values + i + 4));
    const __m256i v = _mm256_set_m128i(hi, lo);
    uint8_t* byte = bytes + ((first + i) >> 3);
    for (size_t p = 0; p < num_planes; ++p, byte += stride * 8) {
      const __m256i top =
          _mm256_sll_epi32(v, _mm_cvtsi32_si128(static_cast<int>(31 - p)));
      *byte |= static_cast<uint8_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(top)));
    }
  }
  for (; i < n; ++i) one(i);
}

constexpr ScanKernels kAvx2Kernels = {
    &UnpackAvx2,   &MatchEqAvx2,   &CountCodesAvx2, &AndStoreAvx2,
    &AndMassAvx2,  &SetPlanesAvx2,
};

}  // namespace

namespace internal {
const ScanKernels* GetAvx2Kernels() { return &kAvx2Kernels; }
}  // namespace internal

}  // namespace smartdd

#else  // !defined(__AVX2__)

namespace smartdd::internal {
const ScanKernels* GetAvx2Kernels() { return nullptr; }
}  // namespace smartdd::internal

#endif  // defined(__AVX2__)
