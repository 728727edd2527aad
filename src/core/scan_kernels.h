#ifndef SMARTDD_CORE_SCAN_KERNELS_H_
#define SMARTDD_CORE_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "rules/rule.h"
#include "storage/packed_column.h"
#include "storage/table.h"

namespace smartdd {

/// The dispatch path the scan kernels actually run on. The portable scalar
/// path is always compiled (and always differential-tested against the SIMD
/// path); kAvx2 exists only on x86-64 hosts whose CPU reports AVX2 and
/// whose build compiled the AVX2 translation unit.
enum class KernelPath : uint8_t { kScalar = 0, kAvx2 = 1 };

/// True when the AVX2 kernels are compiled in AND the CPU reports AVX2.
bool Avx2Available();

/// The path the scan kernels run on: SMARTDD_KERNEL ("scalar" | "avx2" |
/// "auto"), and an unset or "auto" variable defers to CPU detection.
/// Requesting avx2 on a host without AVX2 falls back to scalar, and an
/// unparsable value is ignored (each logged once). This is the one kernel
/// selector: every path returns the same bytes, so the choice is a fact
/// about the platform, not a setting of a request. The variable is read on
/// each call (the finder resolves once per Find, the sampler at
/// construction), so a differential test switches paths by setting it
/// between searches; the first resolution in a process is logged.
KernelPath ResolveKernelPath();

const char* KernelPathName(KernelPath path);

/// The kernel table bound to one KernelPath. Every function has identical
/// observable semantics on both paths — the SIMD variants only vectorize
/// integer decode, compare and bitset work, never a floating-point sum —
/// which is what keeps drill-down trees byte-identical across
/// {scalar, SIMD} x num_threads x num_shards.
struct ScanKernels {
  /// Decodes codes [begin, end) of `col` into `out`.
  void (*unpack)(PackedRef col, uint64_t begin, uint64_t end, uint32_t* out);

  /// Match mask over a contiguous row block: for i in [0, n),
  ///   mask[i] = (first ? 0xFF : mask[i]) & (col.Get(begin+i) == want ? 0xFF
  ///   : 0).
  void (*match_eq)(PackedRef col, uint64_t begin, size_t n, uint32_t want,
                   uint8_t* mask, bool first);

  /// counts[v] += number of occurrences of code v over rows [begin, end).
  /// `counts` has dict_size entries; every stored code is < dict_size (the
  /// codes come from the column's dictionary). Pure integer counting, so
  /// both paths produce identical counts — the AVX2 path replaces the
  /// scalar histogram with SWAR popcounts on the sub-byte widths, which is
  /// where the packed layout pays off (no per-row decode at all).
  void (*count_codes)(PackedRef col, uint64_t begin, uint64_t end,
                      size_t dict_size, uint32_t* counts);

  /// Row bitsets (bit t of word t / 64 is row t), the dense form of the
  /// marginal search's row sets (core/row_set.h). out[i] = a[i] & b[i] for
  /// i in [0, n); returns the number of set bits in `out`. `out` may alias
  /// `a` or `b`, so a chain of calls ANDs any number of bitsets.
  uint64_t (*and_store)(const uint64_t* a, const uint64_t* b, size_t n,
                        uint64_t* out);

  /// The measure mass of the rows in a & b, from measure bit-planes: plane
  /// p (words planes[p * n .. p * n + n)) holds bit p of each row's
  /// integer measure, and the mass is the sum over p < num_planes of
  ///   2^p * popcount(a & b & plane p).
  /// With no planes every row weighs 1, and this is popcount(a & b).
  uint64_t (*and_mass)(const uint64_t* a, const uint64_t* b,
                       const uint64_t* planes, size_t num_planes, size_t n);

  /// Builds measure bit-planes over rows: for i in [0, n), ORs bit p of the
  /// integer values[i] into bit `first + i` of plane p (words
  /// planes[p * stride .. p * stride + stride)) for every p < num_planes.
  /// Every value must be a non-negative integer below 2^num_planes, and
  /// num_planes at most 31.
  void (*set_planes)(const double* values, uint64_t n, uint64_t first,
                     size_t num_planes, size_t stride, uint64_t* planes);
};

/// The kernel table for a path (kAvx2 silently degrades to the scalar
/// table when unavailable, mirroring ResolveKernelPath). The kernel unit
/// tests name both paths directly.
const ScanKernels& GetScanKernels(KernelPath path);

/// Rows per block the callers hand to the kernels: bounds scratch (codes +
/// mask) to L1-friendly sizes while amortizing dispatch.
inline constexpr uint64_t kScanBlockRows = kGranuleRows;

/// Byte mask of `rule` over the contiguous table rows [row_begin, row_end):
/// mask[i] != 0 iff the rule covers row row_begin + i. `row_end - row_begin`
/// must be <= kScanBlockRows (callers loop over blocks). Composes the
/// per-column match_eq kernels over the rule's instantiated columns.
void ComputeRuleMask(const Rule& rule, const Table& table, uint64_t row_begin,
                     uint64_t row_end, uint8_t* mask, const ScanKernels& k);

/// The same over column readers (one per rule column), e.g. the columns of
/// a scan block: mask[i] != 0 iff the rule covers index row_begin + i.
void ComputeRuleMask(const Rule& rule, const PackedRef* columns,
                     uint64_t row_begin, uint64_t row_end, uint8_t* mask,
                     const ScanKernels& k);

}  // namespace smartdd

#endif  // SMARTDD_CORE_SCAN_KERNELS_H_
