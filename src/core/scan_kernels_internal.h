#ifndef SMARTDD_CORE_SCAN_KERNELS_INTERNAL_H_
#define SMARTDD_CORE_SCAN_KERNELS_INTERNAL_H_

#include "core/scan_kernels.h"

namespace smartdd::internal {

/// Defined in scan_kernels_avx2.cc (the only TU compiled with -mavx2).
/// Returns nullptr when the build did not enable AVX2 for that TU, so the
/// dispatcher degrades to scalar without any preprocessor coupling here.
const ScanKernels* GetAvx2Kernels();

/// Defined in scan_kernels_avx512.cc (the only TU compiled with -mavx512f
/// -mavx512vpopcntdq): the AVX2 table with the bitset kernels swapped for
/// VPOPCNTDQ bodies, or nullptr when the build enabled neither. The TU's
/// code may use AVX-512 anywhere, so call it only on a CPU that has it.
const ScanKernels* GetAvx512Kernels();

/// The portable reference kernels (always compiled, always tested).
const ScanKernels& GetScalarKernels();

}  // namespace smartdd::internal

#endif  // SMARTDD_CORE_SCAN_KERNELS_INTERNAL_H_
