#include "util/cpu.hpp"

#ifdef SENIDS_X86_SIMD
#include <cpuid.h>
#endif

namespace senids::util {

bool cpu_has_avx2() noexcept {
#ifdef SENIDS_X86_SIMD
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

bool cpu_has_sha() noexcept {
#ifdef SENIDS_X86_SIMD
  static const bool ok = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx & bit_SHA) != 0 && __builtin_cpu_supports("ssse3") != 0 &&
           __builtin_cpu_supports("sse4.1") != 0;
  }();
  return ok;
#else
  return false;
#endif
}

}  // namespace senids::util
