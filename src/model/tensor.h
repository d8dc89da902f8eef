/**
 * @file
 * Minimal dense tensor support: float vectors and row-major matrices
 * with deterministic hash-based initialization, enough to run DLRM
 * inference functionally (the simulator's gold results).
 */

#ifndef RMSSD_MODEL_TENSOR_H
#define RMSSD_MODEL_TENSOR_H

#include <cstdint>
#include <span>
#include <vector>

namespace rmssd::model {

using Vector = std::vector<float>;

/** Row-major matrix of floats. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::uint32_t rows, std::uint32_t cols);

    /** Deterministic pseudo-random matrix derived from @p seed. */
    static Matrix random(std::uint32_t rows, std::uint32_t cols,
                         std::uint64_t seed, float scale = 0.1f);

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }

    float &at(std::uint32_t r, std::uint32_t c);
    float at(std::uint32_t r, std::uint32_t c) const;

    const std::vector<float> &data() const { return data_; }

  private:
    std::uint32_t rows_ = 0;
    std::uint32_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * The one GEMV kernel of the functional datapath: y = W (head ++ tail).
 *
 * The input is given as two contiguous segments, @p head then
 * @p tail (the decomposed L0 feeds Le's pooled columns and Lb's
 * bottom-MLP columns without a concat copy); @p tail may be empty.
 *
 * Bit-exactness contract: every row keeps its own double accumulator,
 * starts at 0 and adds double(W[r][c]) * x[c] for c in strictly
 * increasing order, then rounds once to float. Rows are processed in
 * blocks only to overlap the add latency of independent rows; no sum
 * is reassociated, so each output is bit-identical to the naive
 * one-row loop. (A float-by-float product is exact in double, so FMA
 * contraction could not change a bit either.)
 */
void gemv(const Matrix &w, std::span<const float> head,
          std::span<const float> tail, std::span<float> y);

/** Element-wise vector sum: acc += v. Sizes must match. */
void accumulate(Vector &acc, const Vector &v);

/** Concatenate b onto the end of a copy of a. */
Vector concat(const Vector &a, const Vector &b);

/** Max absolute element-wise difference (test tolerance checks). */
float maxAbsDiff(const Vector &a, const Vector &b);

} // namespace rmssd::model

#endif // RMSSD_MODEL_TENSOR_H
