// CPU-feature probes for the SIMD kernels. Each kernel is compiled with a
// per-function `__attribute__((target(...)))` and chosen at run time by
// one of these probes, so a single binary runs on every x86-64 host and
// keeps its portable scalar path. Each probe runs once per process.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// Defined where the x86-64 SIMD kernels are compiled: GCC/Clang
/// target attributes and <immintrin.h> are available.
#define SENIDS_X86_SIMD 1
#endif

namespace senids::util {

/// AVX2. Always false where SENIDS_X86_SIMD is undefined.
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// The SHA extensions (CPUID leaf 7, EBX bit 29), plus the SSSE3 and
/// SSE4.1 that the SHA-256 kernel also uses. Always false where
/// SENIDS_X86_SIMD is undefined.
[[nodiscard]] bool cpu_has_sha() noexcept;

}  // namespace senids::util
