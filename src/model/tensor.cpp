#include "model/tensor.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::model {

Matrix::Matrix(std::uint32_t rows, std::uint32_t cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * cols, 0.0f)
{
}

Matrix
Matrix::random(std::uint32_t rows, std::uint32_t cols,
               std::uint64_t seed, float scale)
{
    Matrix m(rows, cols);
    float *out = m.data_.data();
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            const std::uint64_t h =
                hashCombine(seed, (static_cast<std::uint64_t>(r) << 32) | c);
            *out++ = hashToUnitFloat(h) * scale;
        }
    }
    return m;
}

float &
Matrix::at(std::uint32_t r, std::uint32_t c)
{
    RMSSD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[static_cast<std::size_t>(r) * cols_ + c];
}

float
Matrix::at(std::uint32_t r, std::uint32_t c) const
{
    RMSSD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[static_cast<std::size_t>(r) * cols_ + c];
}

namespace {

/** Rows in flight per gemv() block: independent add chains. */
constexpr std::uint32_t kGemvRowBlock = 8;

/**
 * @p B consecutive rows of y = W (head ++ tail), starting at row
 * pointer @p w. Each row's accumulator walks the columns in order;
 * only the B rows interleave.
 */
template <std::uint32_t B>
void
gemvRows(const float *w, std::size_t stride, std::span<const float> head,
         std::span<const float> tail, float *y)
{
    double acc[B] = {};
    for (std::size_t c = 0; c < head.size(); ++c) {
        const double x = head[c];
        for (std::uint32_t i = 0; i < B; ++i)
            acc[i] += static_cast<double>(w[i * stride + c]) * x;
    }
    const float *wt = w + head.size();
    for (std::size_t c = 0; c < tail.size(); ++c) {
        const double x = tail[c];
        for (std::uint32_t i = 0; i < B; ++i)
            acc[i] += static_cast<double>(wt[i * stride + c]) * x;
    }
    for (std::uint32_t i = 0; i < B; ++i)
        y[i] = static_cast<float>(acc[i]);
}

} // namespace

void
gemv(const Matrix &w, std::span<const float> head,
     std::span<const float> tail, std::span<float> y)
{
    RMSSD_ASSERT(head.size() + tail.size() == w.cols(),
                 "matvec dimension mismatch");
    RMSSD_ASSERT(y.size() == w.rows(), "matvec output size mismatch");
    const std::size_t stride = w.cols();
    const float *data = w.data().data();
    std::uint32_t r = 0;
    for (; r + kGemvRowBlock <= w.rows(); r += kGemvRowBlock) {
        gemvRows<kGemvRowBlock>(data + r * stride, stride, head, tail,
                                &y[r]);
    }
    for (; r < w.rows(); ++r)
        gemvRows<1>(data + r * stride, stride, head, tail, &y[r]);
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

float
maxAbsDiff(const Vector &a, const Vector &b)
{
    RMSSD_ASSERT(a.size() == b.size(), "maxAbsDiff size mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace rmssd::model
