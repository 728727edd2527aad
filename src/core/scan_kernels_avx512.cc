// The only translation unit compiled with -mavx512f -mavx512vpopcntdq (see
// CMakeLists.txt). The guard below keeps it an empty stub on toolchains and
// targets without those flags, so the AVX2 and scalar paths always build.
//
// Only the bitset kernels have bodies here: VPOPCNTDQ counts eight words per
// instruction, where the AVX2 bodies count one word per popcnt (and_store)
// or by nibble lookups (and_mass). Every other slot of the table is the
// AVX2 table's.

#include "core/scan_kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

namespace smartdd {
namespace {

// Tails (fewer than eight words) take the scalar loop, as in the AVX2
// bodies, so no load reads past the caller's arrays.
uint64_t AndStoreAvx512(const uint64_t* a, const uint64_t* b, size_t n,
                        uint64_t* out) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x =
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    _mm512_storeu_si512(out + i, x);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  uint64_t count = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    out[i] = a[i] & b[i];
    count += static_cast<uint64_t>(__builtin_popcountll(out[i]));
  }
  return count;
}

// The mass of the B eight-word vectors of a & b at word i, per lane. Each
// vector's planes are folded Horner-style from the top plane down,
// s = 2s + popcount(x & P_p), so a plane costs one AND, one VPOPCNTQ, one
// shift and one add, and the sum is the same integer as the scalar sum of
// 2^p * popcount(x & P_p). Two vectors per plane step keep two independent
// folds in flight, which measured about 20% faster than one at 313 words.
template <int B>
__m512i FoldPlanes(const uint64_t* a, const uint64_t* b,
                   const uint64_t* planes, size_t num_planes, size_t n,
                   size_t i) {
  __m512i x[B], s[B];
  for (int k = 0; k < B; ++k) {
    x[k] = _mm512_and_si512(_mm512_loadu_si512(a + i + 8 * k),
                            _mm512_loadu_si512(b + i + 8 * k));
    s[k] = _mm512_setzero_si512();
  }
  for (size_t p = num_planes; p-- > 0;) {
    const uint64_t* q = planes + p * n + i;
    for (int k = 0; k < B; ++k) {
      s[k] = _mm512_add_epi64(
          _mm512_slli_epi64(s[k], 1),
          _mm512_popcnt_epi64(
              _mm512_and_si512(x[k], _mm512_loadu_si512(q + 8 * k))));
    }
  }
  for (int k = 1; k < B; ++k) s[0] = _mm512_add_epi64(s[0], s[k]);
  return s[0];
}

uint64_t AndMassAvx512(const uint64_t* a, const uint64_t* b,
                       const uint64_t* planes, size_t num_planes, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  if (num_planes == 0) {
    for (; i + 8 <= n; i += 8) {
      acc = _mm512_add_epi64(
          acc, _mm512_popcnt_epi64(_mm512_and_si512(
                   _mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i))));
    }
  } else {
    for (; i + 16 <= n; i += 16) {
      acc = _mm512_add_epi64(acc,
                             FoldPlanes<2>(a, b, planes, num_planes, n, i));
    }
    if (i + 8 <= n) {
      acc = _mm512_add_epi64(acc,
                             FoldPlanes<1>(a, b, planes, num_planes, n, i));
      i += 8;
    }
  }
  uint64_t mass = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    const uint64_t x = a[i] & b[i];
    if (num_planes == 0) {
      mass += static_cast<uint64_t>(__builtin_popcountll(x));
    }
    for (size_t p = 0; p < num_planes; ++p) {
      mass += static_cast<uint64_t>(
                  __builtin_popcountll(x & planes[p * n + i]))
              << p;
    }
  }
  return mass;
}

}  // namespace

namespace internal {
const ScanKernels* GetAvx512Kernels() {
  const ScanKernels* avx2 = GetAvx2Kernels();
  if (avx2 == nullptr) return nullptr;
  static const ScanKernels table = [avx2] {
    ScanKernels t = *avx2;
    t.and_store = &AndStoreAvx512;
    t.and_mass = &AndMassAvx512;
    return t;
  }();
  return &table;
}
}  // namespace internal

}  // namespace smartdd

#else  // !(defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__))

namespace smartdd::internal {
const ScanKernels* GetAvx512Kernels() { return nullptr; }
}  // namespace smartdd::internal

#endif  // defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
