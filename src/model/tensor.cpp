#include "model/tensor.h"

#include <algorithm>

#include "model/embedding.h"
#include "sim/log.h"
#include "sim/rng.h"

// The vector bodies of gemv() need GCC/Clang x86-64: SSE2 is part of
// that baseline, and AVX2 is compiled per function and run only if
// the CPU reports it. Every other target runs the portable body. The
// row synthesiser's AVX-512 body is compiled and chosen the same way.
#if defined(__x86_64__) && defined(__GNUC__)
#define RMSSD_GEMV_X86 1
#include <immintrin.h>
#else
#define RMSSD_GEMV_X86 0
#endif

namespace rmssd::model {

namespace {

constexpr std::uint32_t kPanel = Matrix::kPanelRows;

std::uint32_t
panelCount(std::uint32_t rows)
{
    return (rows + kPanel - 1) / kPanel;
}

} // namespace

Matrix::Matrix(std::uint32_t rows, std::uint32_t cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(panelCount(rows)) * kPanel * cols,
            0.0f)
{
}

Matrix
Matrix::random(std::uint32_t rows, std::uint32_t cols,
               std::uint64_t seed, float scale)
{
    // Written in storage order; padding rows keep their zeros.
    Matrix m(rows, cols);
    float *panel = m.data_.data();
    for (std::uint32_t r0 = 0; r0 < rows; r0 += kPanel) {
        const std::uint32_t height = std::min(kPanel, rows - r0);
        for (std::uint32_t c = 0; c < cols; ++c) {
            float *out = panel + static_cast<std::size_t>(c) * kPanel;
            for (std::uint32_t i = 0; i < height; ++i) {
                const std::uint64_t h = hashCombine(
                    seed, (static_cast<std::uint64_t>(r0 + i) << 32) | c);
                out[i] = hashToUnitFloat(h) * scale;
            }
        }
        panel += static_cast<std::size_t>(kPanel) * cols;
    }
    return m;
}

std::size_t
Matrix::index(std::uint32_t r, std::uint32_t c) const
{
    RMSSD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return static_cast<std::size_t>(r / kPanel) * kPanel * cols_ +
           static_cast<std::size_t>(c) * kPanel + r % kPanel;
}

float &
Matrix::at(std::uint32_t r, std::uint32_t c)
{
    return data_[index(r, c)];
}

float
Matrix::at(std::uint32_t r, std::uint32_t c) const
{
    return data_[index(r, c)];
}

namespace {

/**
 * One panel of y = W (head ++ tail): the 16 row sums of @p panel, in
 * double, into @p acc. Every body walks the columns in order and, per
 * column, multiplies each converted weight by double(x[c]) and then
 * adds the product to its row's accumulator.
 */
using PanelKernel = void (*)(const float *panel,
                             std::span<const float> head,
                             std::span<const float> tail, double *acc);

void
panelPortable(const float *panel, std::span<const float> head,
              std::span<const float> tail, double *acc)
{
    double a[kPanel] = {};
    const float *w = panel;
    for (const std::span<const float> x : {head, tail}) {
        for (const float xc : x) {
            const double xd = xc;
            for (std::uint32_t i = 0; i < kPanel; ++i)
                a[i] += static_cast<double>(w[i]) * xd;
            w += kPanel;
        }
    }
    std::copy(a, a + kPanel, acc);
}

#if RMSSD_GEMV_X86

void
panelSse2(const float *panel, std::span<const float> head,
          std::span<const float> tail, double *acc)
{
    // a[2k] holds rows 4k, 4k+1; a[2k+1] rows 4k+2, 4k+3.
    __m128d a[8];
    for (__m128d &v : a)
        v = _mm_setzero_pd();
    const float *w = panel;
    for (const std::span<const float> x : {head, tail}) {
        for (const float xc : x) {
            const __m128d xd = _mm_set1_pd(static_cast<double>(xc));
            for (int k = 0; k < 4; ++k) {
                const __m128 w4 = _mm_loadu_ps(w + 4 * k);
                const __m128d lo = _mm_cvtps_pd(w4);
                const __m128d hi = _mm_cvtps_pd(_mm_movehl_ps(w4, w4));
                a[2 * k] = _mm_add_pd(a[2 * k], _mm_mul_pd(lo, xd));
                a[2 * k + 1] = _mm_add_pd(a[2 * k + 1], _mm_mul_pd(hi, xd));
            }
            w += kPanel;
        }
    }
    for (int k = 0; k < 8; ++k)
        _mm_storeu_pd(acc + 2 * k, a[k]);
}

// AVX2 only, not FMA: mul and add stay two roundings of which the
// first is exact, as in every other body.
__attribute__((target("avx2"))) void
panelAvx2(const float *panel, std::span<const float> head,
          std::span<const float> tail, double *acc)
{
    __m256d a[4];
    for (__m256d &v : a)
        v = _mm256_setzero_pd();
    const float *w = panel;
    for (const std::span<const float> x : {head, tail}) {
        for (const float xc : x) {
            const __m256d xd = _mm256_set1_pd(static_cast<double>(xc));
            for (int k = 0; k < 4; ++k) {
                const __m256d w4 = _mm256_cvtps_pd(_mm_loadu_ps(w + 4 * k));
                a[k] = _mm256_add_pd(a[k], _mm256_mul_pd(w4, xd));
            }
            w += kPanel;
        }
    }
    for (int k = 0; k < 4; ++k)
        _mm256_storeu_pd(acc + 4 * k, a[k]);
}

#endif // RMSSD_GEMV_X86

/** The body of @p kernel, or nullptr if this build or CPU lacks it. */
PanelKernel
panelKernel(GemvKernel kernel)
{
    switch (kernel) {
      case GemvKernel::Portable:
        return panelPortable;
#if RMSSD_GEMV_X86
      case GemvKernel::Sse2:
        return panelSse2;
      case GemvKernel::Avx2:
        return __builtin_cpu_supports("avx2") ? panelAvx2 : nullptr;
#endif
      default:
        return nullptr;
    }
}

/** The fastest body this CPU runs, chosen once per process. */
GemvKernel
bestKernel()
{
    static const GemvKernel best = [] {
        if (gemvKernelSupported(GemvKernel::Avx2))
            return GemvKernel::Avx2;
        if (gemvKernelSupported(GemvKernel::Sse2))
            return GemvKernel::Sse2;
        return GemvKernel::Portable;
    }();
    return best;
}

} // namespace

bool
gemvKernelSupported(GemvKernel kernel)
{
    return panelKernel(kernel) != nullptr;
}

void
gemvWith(GemvKernel kernel, const Matrix &w, std::span<const float> head,
         std::span<const float> tail, std::span<float> y)
{
    RMSSD_ASSERT(head.size() + tail.size() == w.cols(),
                 "matvec dimension mismatch");
    RMSSD_ASSERT(y.size() == w.rows(), "matvec output size mismatch");
    const PanelKernel body = panelKernel(kernel);
    RMSSD_ASSERT(body != nullptr, "GEMV kernel not supported on this host");
    const std::size_t panelFloats =
        static_cast<std::size_t>(kPanel) * w.cols();
    const float *panel = w.data().data();
    double acc[kPanel];
    for (std::uint32_t r0 = 0; r0 < w.rows(); r0 += kPanel) {
        body(panel, head, tail, acc);
        const std::uint32_t height = std::min(kPanel, w.rows() - r0);
        for (std::uint32_t i = 0; i < height; ++i)
            y[r0 + i] = static_cast<float>(acc[i]);
        panel += panelFloats;
    }
}

void
gemv(const Matrix &w, std::span<const float> head,
     std::span<const float> tail, std::span<float> y)
{
    gemvWith(bestKernel(), w, head, tail, y);
}

namespace {

/**
 * The one synthesiser loop, inlined into every body so that each
 * target compiles the same source; the compiler vectorises the inner
 * loop over d.
 */
[[gnu::always_inline]] inline void
synthesizeLoop(std::uint64_t tableHash, std::uint64_t firstRow,
               std::uint64_t count, std::uint32_t dim, float *out)
{
    for (std::uint64_t r = 0; r < count; ++r) {
        float *row = out + r * dim;
        for (std::uint32_t d = 0; d < dim; ++d)
            row[d] = syntheticElement(tableHash, firstRow + r, d);
    }
}

using RowsBody = void (*)(std::uint64_t tableHash, std::uint64_t firstRow,
                          std::uint64_t count, std::uint32_t dim,
                          float *out);

void
rowsPortable(std::uint64_t tableHash, std::uint64_t firstRow,
             std::uint64_t count, std::uint32_t dim, float *out)
{
    synthesizeLoop(tableHash, firstRow, count, dim, out);
}

#if RMSSD_GEMV_X86

// AVX-512 DQ brings the 64-bit vector multiply and the u64 -> double
// conversion the loop needs. AVX2 has neither, and an AVX2 body ran no
// faster than the default one.
__attribute__((target("avx512f,avx512dq,avx512vl"))) void
rowsAvx512(std::uint64_t tableHash, std::uint64_t firstRow,
           std::uint64_t count, std::uint32_t dim, float *out)
{
    synthesizeLoop(tableHash, firstRow, count, dim, out);
}

#endif // RMSSD_GEMV_X86

/** The body of @p kernel, or nullptr if this build or CPU lacks it. */
RowsBody
rowsBody(RowKernel kernel)
{
    switch (kernel) {
      case RowKernel::Portable:
        return rowsPortable;
#if RMSSD_GEMV_X86
      case RowKernel::Avx512:
        return __builtin_cpu_supports("avx512f") &&
                       __builtin_cpu_supports("avx512dq") &&
                       __builtin_cpu_supports("avx512vl")
                   ? rowsAvx512
                   : nullptr;
#endif
      default:
        return nullptr;
    }
}

} // namespace

bool
rowKernelSupported(RowKernel kernel)
{
    return rowsBody(kernel) != nullptr;
}

RowKernel
bestRowKernel()
{
    static const RowKernel best = rowKernelSupported(RowKernel::Avx512)
                                      ? RowKernel::Avx512
                                      : RowKernel::Portable;
    return best;
}

void
synthesizeRows(RowKernel kernel, std::uint64_t tableHash,
               std::uint64_t firstRow, std::uint64_t count,
               std::uint32_t dim, float *out)
{
    const RowsBody body = rowsBody(kernel);
    RMSSD_ASSERT(body != nullptr,
                 "row synthesiser body not supported on this host");
    body(tableHash, firstRow, count, dim, out);
}

void
accumulate(Vector &acc, const Vector &v)
{
    RMSSD_ASSERT(acc.size() == v.size(), "accumulate size mismatch");
    for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] += v[i];
}

Vector
concat(const Vector &a, const Vector &b)
{
    Vector out;
    out.reserve(a.size() + b.size());
    out.insert(out.end(), a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

} // namespace rmssd::model
