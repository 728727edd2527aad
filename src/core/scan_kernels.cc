#include "core/scan_kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "core/scan_kernels_internal.h"

namespace smartdd {
namespace {

// --- Portable scalar kernels ------------------------------------------
//
// These are the semantic reference: the SIMD variants must be observably
// identical (the differential suite in tests/packed_column_test.cc holds
// them to that on full drill-down trees).

void UnpackScalar(PackedRef col, uint64_t begin, uint64_t end, uint32_t* out) {
  switch (col.width) {
    case PackedWidth::kUnpacked:
    case PackedWidth::k32:
      std::memcpy(out, static_cast<const uint32_t*>(col.data) + begin,
                  (end - begin) * sizeof(uint32_t));
      return;
    case PackedWidth::kConst:
      std::memset(out, 0, (end - begin) * sizeof(uint32_t));
      return;
    case PackedWidth::k8: {
      const uint8_t* p = static_cast<const uint8_t*>(col.data) + begin;
      for (uint64_t i = 0, n = end - begin; i < n; ++i) out[i] = p[i];
      return;
    }
    case PackedWidth::k16: {
      const uint16_t* p = static_cast<const uint16_t*>(col.data) + begin;
      for (uint64_t i = 0, n = end - begin; i < n; ++i) out[i] = p[i];
      return;
    }
    case PackedWidth::kSub:
      for (uint64_t i = begin; i < end; ++i) *out++ = col.Get(i);
      return;
  }
}

void MatchEqScalar(PackedRef col, uint64_t begin, size_t n, uint32_t want,
                   uint8_t* mask, bool first) {
  switch (col.width) {
    case PackedWidth::kUnpacked:
    case PackedWidth::k32: {
      const uint32_t* p = static_cast<const uint32_t*>(col.data) + begin;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t m = p[i] == want ? 0xFFu : 0u;
        mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
      }
      return;
    }
    case PackedWidth::k16: {
      const uint16_t* p = static_cast<const uint16_t*>(col.data) + begin;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t m = p[i] == want ? 0xFFu : 0u;
        mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
      }
      return;
    }
    case PackedWidth::k8: {
      const uint8_t* p = static_cast<const uint8_t*>(col.data) + begin;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t m = p[i] == want ? 0xFFu : 0u;
        mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
      }
      return;
    }
    case PackedWidth::kConst: {
      const uint8_t m = want == 0 ? 0xFFu : 0u;
      if (first) {
        std::memset(mask, m, n);
      } else if (m == 0) {
        std::memset(mask, 0, n);
      }
      return;
    }
    case PackedWidth::kSub: {
      for (size_t i = 0; i < n; ++i) {
        const uint8_t m = col.Get(begin + i) == want ? 0xFFu : 0u;
        mask[i] = first ? m : static_cast<uint8_t>(mask[i] & m);
      }
      return;
    }
  }
}

void CountCodesScalar(PackedRef col, uint64_t begin, uint64_t end,
                      size_t dict_size, uint32_t* counts) {
  (void)dict_size;
  switch (col.width) {
    case PackedWidth::kConst:
      counts[0] += static_cast<uint32_t>(end - begin);
      return;
    case PackedWidth::kUnpacked:
    case PackedWidth::k32: {
      const uint32_t* p = static_cast<const uint32_t*>(col.data);
      for (uint64_t i = begin; i < end; ++i) ++counts[p[i]];
      return;
    }
    case PackedWidth::k8: {
      const uint8_t* p = static_cast<const uint8_t*>(col.data);
      for (uint64_t i = begin; i < end; ++i) ++counts[p[i]];
      return;
    }
    case PackedWidth::k16: {
      const uint16_t* p = static_cast<const uint16_t*>(col.data);
      for (uint64_t i = begin; i < end; ++i) ++counts[p[i]];
      return;
    }
    case PackedWidth::kSub:
      for (uint64_t i = begin; i < end; ++i) ++counts[col.Get(i)];
      return;
  }
}

// The library builds without -mpopcnt, where __builtin_popcountll is a
// libgcc call; a SWAR count keeps the scalar bitset kernels inline.
inline uint64_t Popcount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

uint64_t AndStoreScalar(const uint64_t* a, const uint64_t* b, size_t n,
                        uint64_t* out) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] & b[i];
    count += Popcount64(out[i]);
  }
  return count;
}

uint64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += Popcount64(a[i] & b[i]);
  return count;
}

uint64_t AndMassScalar(const uint64_t* a, const uint64_t* b,
                       const uint64_t* planes, size_t num_planes, size_t n) {
  if (num_planes == 0) return AndPopcountScalar(a, b, n);
  uint64_t mass = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = a[i] & b[i];
    for (size_t p = 0; p < num_planes; ++p) {
      mass += Popcount64(x & planes[p * n + i]) << p;
    }
  }
  return mass;
}

void SetPlanesScalar(const double* values, uint64_t n, uint64_t first,
                     size_t num_planes, size_t stride, uint64_t* planes) {
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t m = static_cast<uint64_t>(values[i]);
    const uint64_t row = first + i;
    uint64_t* word = planes + (row >> 6);
    for (size_t p = 0; p < num_planes; ++p) {
      word[p * stride] |= ((m >> p) & 1) << (row & 63);
    }
  }
}

constexpr ScanKernels kScalarKernels = {
    &UnpackScalar,   &MatchEqScalar, &CountCodesScalar, &AndStoreScalar,
    &AndMassScalar,  &SetPlanesScalar,
};

// Whether the CPU (and, for AVX-512, the OS's saved register state) has
// the instructions a path's bodies use. Called from static initializers
// too (benches register per-path benchmarks before main), hence the
// explicit init.
bool CpuHas(KernelPath path) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (path) {
    case KernelPath::kScalar:
      return true;
    case KernelPath::kAvx2:
      return __builtin_cpu_supports("avx2");
    case KernelPath::kAvx512:
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vpopcntdq");
  }
  return false;
#else
  return path == KernelPath::kScalar;
#endif
}

// The table a path's translation unit built, or nullptr for a stub.
const ScanKernels* CompiledKernels(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return &kScalarKernels;
    case KernelPath::kAvx2:
      return internal::GetAvx2Kernels();
    case KernelPath::kAvx512:
      return internal::GetAvx512Kernels();
  }
  return nullptr;
}

// The fastest available path: what an unset or "auto" SMARTDD_KERNEL runs.
KernelPath BestKernelPath() {
  KernelPath best = KernelPath::kScalar;
  for (KernelPath path : kKernelPaths) {
    if (KernelPathAvailable(path)) best = path;
  }
  return best;
}

}  // namespace

namespace internal {
const ScanKernels& GetScalarKernels() { return kScalarKernels; }
}  // namespace internal

bool KernelPathAvailable(KernelPath path) {
  static const auto available = [] {
    std::array<bool, std::size(kKernelPaths)> out{};
    for (KernelPath p : kKernelPaths) {
      // CompiledKernels runs second: an ISA unit may use its instructions
      // anywhere, so it is entered only on a CPU that has them.
      out[static_cast<size_t>(p)] = CpuHas(p) && CompiledKernels(p) != nullptr;
    }
    return out;
  }();
  return available[static_cast<size_t>(path)];
}

std::vector<KernelPath> AvailableKernelPaths() {
  std::vector<KernelPath> paths;
  for (KernelPath path : kKernelPaths) {
    if (KernelPathAvailable(path)) paths.push_back(path);
  }
  return paths;
}

KernelPath ResolveKernelPath() {
  const char* env = std::getenv("SMARTDD_KERNEL");
  const std::string_view pref = env == nullptr ? "" : env;
  KernelPath path = BestKernelPath();
  if (!pref.empty() && pref != "auto") {
    const KernelPath* named =
        std::find_if(std::begin(kKernelPaths), std::end(kKernelPaths),
                     [&](KernelPath p) { return pref == KernelPathName(p); });
    if (named == std::end(kKernelPaths)) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::string expected = "auto";
        for (KernelPath p : kKernelPaths) {
          expected += '|';
          expected += KernelPathName(p);
        }
        SMARTDD_LOG(Warning) << "ignoring SMARTDD_KERNEL=" << pref
                             << ": unknown kernel (expected " << expected
                             << ")";
      }
    } else if (KernelPathAvailable(*named)) {
      path = *named;
    } else {
      static std::atomic<bool> warned[std::size(kKernelPaths)] = {};
      if (!warned[static_cast<size_t>(*named)].exchange(true)) {
        SMARTDD_LOG(Warning)
            << "SMARTDD_KERNEL=" << pref << " requested but "
            << KernelPathName(*named)
            << " is unavailable (cpu or build); falling back to "
            << KernelPathName(path) << " kernels";
      }
    }
  }
  // One line per process, so an operator can confirm from the log which
  // path a deployment took (smartdd_build_info exports it too).
  static bool logged = [path] {
    SMARTDD_LOG(Info) << "scan kernels: " << KernelPathName(path);
    return true;
  }();
  (void)logged;
  return path;
}

const char* KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kAvx2:
      return "avx2";
    case KernelPath::kAvx512:
      return "avx512";
  }
  return "scalar";
}

const ScanKernels& GetScanKernels(KernelPath path) {
  return KernelPathAvailable(path) ? *CompiledKernels(path)
                                   : *CompiledKernels(BestKernelPath());
}

namespace {

/// ComputeRuleMask over any column source: `column(c)` returns column c's
/// PackedRef.
template <typename ColumnAt>
void RuleMask(const Rule& rule, ColumnAt column, uint64_t row_begin,
              uint64_t row_end, uint8_t* mask, const ScanKernels& k) {
  SMARTDD_DCHECK(row_end >= row_begin &&
                 row_end - row_begin <= kScanBlockRows);
  const size_t n = static_cast<size_t>(row_end - row_begin);
  const std::vector<uint32_t>& values = rule.values();
  bool first = true;
  for (size_t c = 0; c < values.size(); ++c) {
    const uint32_t want = values[c];
    if (want == kStar) continue;
    const PackedRef col = column(c);
    if (col.width == PackedWidth::kConst) {
      // Stored codes are all 0: the predicate is row-independent.
      if (want != 0) {
        std::memset(mask, 0, n);
        return;
      }
      continue;
    }
    k.match_eq(col, row_begin, n, want, mask, first);
    first = false;
  }
  if (first) std::memset(mask, 0xFF, n);  // trivial (or all-const-true) rule
}

}  // namespace

void ComputeRuleMask(const Rule& rule, const Table& table, uint64_t row_begin,
                     uint64_t row_end, uint8_t* mask, const ScanKernels& k) {
  RuleMask(
      rule, [&](size_t c) { return table.column(c).ref(); }, row_begin,
      row_end, mask, k);
}

void ComputeRuleMask(const Rule& rule, const PackedRef* columns,
                     uint64_t row_begin, uint64_t row_end, uint8_t* mask,
                     const ScanKernels& k) {
  RuleMask(
      rule, [&](size_t c) { return columns[c]; }, row_begin, row_end, mask,
      k);
}

}  // namespace smartdd
