/**
 * @file
 * Minimal dense tensor support: float vectors and panel-major matrices
 * with deterministic hash-based initialization, enough to run DLRM
 * inference functionally (the simulator's gold results).
 */

#ifndef RMSSD_MODEL_TENSOR_H
#define RMSSD_MODEL_TENSOR_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rmssd::model {

using Vector = std::vector<float>;

/**
 * Matrix of floats stored in 16-row panels, the layout gemv() walks.
 *
 * Rows [16p, 16p + 16) form panel p. A panel is column-major: the 16
 * weights of column c sit next to each other, so W[r][c] lives at
 * p * 16 * cols + c * 16 + (r - 16p). The last panel is padded with
 * zero rows to 16; the padding is never read out.
 */
class Matrix
{
  public:
    /** Rows per storage panel. */
    static constexpr std::uint32_t kPanelRows = 16;

    Matrix() = default;
    Matrix(std::uint32_t rows, std::uint32_t cols);

    /** Deterministic pseudo-random matrix derived from @p seed. */
    static Matrix random(std::uint32_t rows, std::uint32_t cols,
                         std::uint64_t seed, float scale = 0.1f);

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }

    float &at(std::uint32_t r, std::uint32_t c);
    float at(std::uint32_t r, std::uint32_t c) const;

    /** Storage in panel order, padding included; empty if 0 x 0. */
    const std::vector<float> &data() const { return data_; }

  private:
    std::size_t index(std::uint32_t r, std::uint32_t c) const;

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
 * starts at 0 and adds double(W[r][c]) * double(x[c]) for c in
 * strictly increasing order, a multiply and then an add (never a fused
 * multiply-add), then rounds once to float. A panel's 16 rows advance
 * together, one column at a time, in vector lanes; no sum is
 * reassociated, so each output is bit-identical to the naive one-row
 * loop. The product of two floats is exact in double and each add
 * rounds as IEEE 754 defines, so every body below computes the same
 * bits and choosing one at run time cannot change a result. Only a
 * NaN's payload is open: when two NaNs meet in an add, which one
 * survives is the compiler's operand order (DESIGN.md section 6).
 */
void gemv(const Matrix &w, std::span<const float> head,
          std::span<const float> tail, std::span<float> y);

/** The bodies gemv() can run; it picks the fastest supported one. */
enum class GemvKernel
{
    Portable, //!< plain C++ panel loop, every target
    Sse2,     //!< SSE2 intrinsics, every x86-64 host
    Avx2,     //!< AVX2 intrinsics (no FMA), if the CPU has AVX2
};

/** Whether this build can run @p kernel on this CPU. */
bool gemvKernelSupported(GemvKernel kernel);

/** gemv() through one named body; panics if it is not supported. */
void gemvWith(GemvKernel kernel, const Matrix &w,
              std::span<const float> head, std::span<const float> tail,
              std::span<float> y);

/**
 * The bodies of the embedding-row synthesiser: one loop, compiled once
 * per target. Like gemv()'s bodies they live in tensor.cpp, and
 * EmbeddingTableSpec::fillRows() picks the fastest supported one once
 * per process.
 */
enum class RowKernel
{
    Portable, //!< the loop compiled for the default target
    Avx512,   //!< the same loop for AVX-512 F/DQ/VL, if the CPU has them
};

/** Whether this build can run @p kernel on this CPU. */
bool rowKernelSupported(RowKernel kernel);

/** The fastest row body this CPU runs, chosen once per process. */
RowKernel bestRowKernel();

/**
 * Rows [firstRow, firstRow + count) of the synthetic table whose
 * hashCombine(seed, tableId) is @p tableHash, row after row into
 * @p out (count * dim floats): element (r, d) is syntheticElement()
 * (model/embedding.h), bit for bit, through @p kernel, which panics
 * if it is not supported. The hash is integer-only and its float step
 * exact, so every body computes the same bits (DESIGN.md §13).
 */
void synthesizeRows(RowKernel kernel, std::uint64_t tableHash,
                    std::uint64_t firstRow, std::uint64_t count,
                    std::uint32_t dim, float *out);

/** Element-wise vector sum: acc += v. Sizes must match. */
void accumulate(Vector &acc, const Vector &v);

/** Concatenate b onto the end of a copy of a. */
Vector concat(const Vector &a, const Vector &b);

} // namespace rmssd::model

#endif // RMSSD_MODEL_TENSOR_H
