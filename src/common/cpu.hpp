/**
 * @file
 * The one CPU-feature check of the sort kernels.  The register
 * presorter (sorter/presort.hpp) and the 8-record merge step
 * (sorter/merge_tree.hpp) are compiled whenever the target is x86-64
 * (BONSAI_AVX512) and run only where haveAvx512f() says the CPU has
 * AVX-512F; everywhere else their scalar references run.
 */

#ifndef BONSAI_COMMON_CPU_HPP
#define BONSAI_COMMON_CPU_HPP

#if defined(__x86_64__)
#include <immintrin.h>
#define BONSAI_AVX512 1
#else
#define BONSAI_AVX512 0
#endif

namespace bonsai
{

/** True iff this CPU runs AVX-512F code (checked once). */
inline bool
haveAvx512f()
{
#if BONSAI_AVX512
    static const bool supported = __builtin_cpu_supports("avx512f") != 0;
    return supported;
#else
    return false;
#endif
}

} // namespace bonsai

#endif // BONSAI_COMMON_CPU_HPP
