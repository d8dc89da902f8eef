// Lint fixture: 3 findings expected (lines 6, 9 and 14) — an
// intrinsics header, a target attribute and a CPU feature check
// outside src/model/tensor.cpp. Comments and strings that name them
// ("<immintrin.h>", "__builtin_cpu_supports") are legal. Never
// compiled.
#include <immintrin.h>

double
__attribute__((target("avx2"))) lintFixtureSum(const double *v)
{
    return _mm256_cvtsd_f64(_mm256_loadu_pd(v));
}

bool lintFixtureHasAvx2() { return __builtin_cpu_supports("avx2"); }
