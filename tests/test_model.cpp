/**
 * @file
 * Unit tests for the model layer: tensors, MLP, embedding tables, the
 * DLRM reference, and the Table III model zoo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "model/dlrm.h"
#include "model/embedding.h"
#include "model/mlp.h"
#include "model/model_zoo.h"
#include "model/tensor.h"
#include "sim/rng.h"

namespace rmssd::model {
namespace {

TEST(Tensor, MultiplyMatchesManual)
{
    Matrix m(2, 3);
    m.at(0, 0) = 1;
    m.at(0, 1) = 2;
    m.at(0, 2) = 3;
    m.at(1, 0) = 4;
    m.at(1, 1) = 5;
    m.at(1, 2) = 6;
    const Vector x{1.0f, 1.0f, 1.0f};
    Vector y(2);
    gemv(m, x, {}, y);
    EXPECT_FLOAT_EQ(y[0], 6.0f);
    EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(Tensor, RandomMatrixIsDeterministic)
{
    const Matrix a = Matrix::random(4, 4, 99);
    const Matrix b = Matrix::random(4, 4, 99);
    EXPECT_EQ(a.data(), b.data());
    const Matrix c = Matrix::random(4, 4, 100);
    EXPECT_NE(a.data(), c.data());
}

TEST(Tensor, PanelLayoutRoundTripsEveryElement)
{
    // Partial last panel, one-row matrix, three panels with a tail.
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {17, 5}, {1, 64}, {33, 288}};
    for (const auto &[rows, cols] : shapes) {
        Matrix m(rows, cols);
        const std::uint32_t panels =
            (rows + Matrix::kPanelRows - 1) / Matrix::kPanelRows;
        ASSERT_EQ(m.data().size(),
                  std::size_t{panels} * Matrix::kPanelRows * cols);
        const auto value = [cols](std::uint32_t r, std::uint32_t c) {
            return static_cast<float>(r * cols + c + 1);
        };
        for (std::uint32_t r = 0; r < rows; ++r) {
            for (std::uint32_t c = 0; c < cols; ++c)
                m.at(r, c) = value(r, c);
        }
        const Matrix &cm = m;
        std::size_t nonzero = 0;
        for (std::uint32_t r = 0; r < rows; ++r) {
            for (std::uint32_t c = 0; c < cols; ++c) {
                ASSERT_EQ(cm.at(r, c), value(r, c)) << r << "," << c;
                // Panel p, column-major inside: 16 weights per column.
                const std::size_t at =
                    std::size_t{r / Matrix::kPanelRows} *
                        Matrix::kPanelRows * cols +
                    std::size_t{c} * Matrix::kPanelRows +
                    r % Matrix::kPanelRows;
                ASSERT_EQ(m.data()[at], value(r, c)) << r << "," << c;
            }
        }
        for (const float v : m.data())
            nonzero += v != 0.0f;
        EXPECT_EQ(nonzero, std::size_t{rows} * cols) << "padding not 0";
    }
}

TEST(Tensor, RandomMatrixIsThePerElementHash)
{
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {17, 5}, {1, 64}, {33, 288}};
    for (const auto &[rows, cols] : shapes) {
        const std::uint64_t seed = 0x5eedULL + rows;
        for (const float scale : {0.1f, 3.0f}) {
            const Matrix m = Matrix::random(rows, cols, seed, scale);
            for (std::uint32_t r = 0; r < rows; ++r) {
                for (std::uint32_t c = 0; c < cols; ++c) {
                    const std::uint64_t h = hashCombine(
                        seed, (static_cast<std::uint64_t>(r) << 32) | c);
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(m.at(r, c)),
                              std::bit_cast<std::uint32_t>(
                                  hashToUnitFloat(h) * scale))
                        << rows << "x" << cols << " at " << r << "," << c;
                }
            }
        }
    }
}

TEST(Tensor, ConcatAndAccumulate)
{
    Vector a{1, 2};
    const Vector b{3, 4};
    EXPECT_EQ(concat(a, b), (Vector{1, 2, 3, 4}));
    accumulate(a, b);
    EXPECT_EQ(a, (Vector{4, 6}));
}

/** The naive one-row loop every gemv() body must reproduce bit for bit. */
Vector
naiveGemv(const Matrix &w, const Vector &x)
{
    Vector y(w.rows());
    for (std::uint32_t r = 0; r < w.rows(); ++r) {
        double acc = 0.0;
        for (std::uint32_t c = 0; c < w.cols(); ++c)
            acc += static_cast<double>(w.at(r, c)) * x[c];
        y[r] = static_cast<float>(acc);
    }
    return y;
}

/** Inputs of the GEMV bit-equality checks. */
enum class GemvFill
{
    Rounding, //!< every partial sum rounds: any reordered add shows
    SpecialW, //!< +-inf, a NaN payload, +-0 and subnormals in W
    SpecialX, //!< the same values in x
};

const float kSpecials[] = {
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::bit_cast<float>(0x7fc0beefu), // quiet NaN with a payload
    0.0f,
    -0.0f,
    std::numeric_limits<float>::denorm_min(),
    -0x1.8p-140f, // subnormal
    0x1.fffffcp-127f, // largest subnormal
};

using GemvFn = void (*)(const Matrix &, std::span<const float>,
                       std::span<const float>, std::span<float>);

/** gemvWith() one body, as a GemvFn. */
template <GemvKernel K>
void
gemvBody(const Matrix &w, std::span<const float> head,
         std::span<const float> tail, std::span<float> y)
{
    gemvWith(K, w, head, tail, y);
}

/**
 * Run @p fn on @p rows x @p cols under @p fill, at every split in
 * @p splits, and return the first output whose bits differ from
 * naiveGemv() ("" if none; two NaNs match whatever their payloads).
 */
std::string
gemvMismatch(GemvFn fn, std::uint32_t rows, std::uint32_t cols,
             GemvFill fill, const std::vector<std::uint32_t> &splits,
             Rng &rng)
{
    const auto moderate = [&rng] {
        const float v = static_cast<float>(1.0 + 63.0 * rng.nextDouble());
        return rng.nextBounded(2) ? v : -v;
    };
    const auto special = [&rng] {
        return kSpecials[rng.nextBounded(std::size(kSpecials))];
    };
    Matrix w(rows, cols);
    Vector x(cols);
    for (float &v : x)
        v = moderate();
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c)
            w.at(r, c) = moderate();
    }
    switch (fill) {
      case GemvFill::Rounding: {
        // Each row adds moderate terms between a 2^60 product in its
        // first column and the exact negation in its last, so every
        // partial sum rounds at 2^60's ulp: reordering any of a row's
        // adds changes the float result, not only hidden low-order
        // bits of the double accumulator.
        const float big = 0x1.0p30f;
        for (std::uint32_t r = 0; r < rows; ++r) {
            const float sign = rng.nextBounded(2) ? 1.0f : -1.0f;
            w.at(r, 0) = sign * big;
            if (cols > 1)
                w.at(r, cols - 1) = -sign * big;
        }
        x.front() = big;
        x.back() = big;
        break;
      }
      case GemvFill::SpecialW:
        // A few specials per row, so some rows stay finite.
        for (std::uint32_t r = 0; r < rows; ++r) {
            for (std::uint64_t k = rng.nextBounded(4); k > 0; --k)
                w.at(r, static_cast<std::uint32_t>(
                            rng.nextBounded(cols))) = special();
        }
        break;
      case GemvFill::SpecialX:
        // Zero weights meet infinite inputs: inf * 0 is NaN.
        for (std::uint32_t r = 0; r < rows; ++r) {
            if (rng.nextBounded(2))
                w.at(r, static_cast<std::uint32_t>(
                            rng.nextBounded(cols))) = 0.0f;
        }
        for (std::uint64_t k = 1 + rng.nextBounded(2); k > 0; --k)
            x[rng.nextBounded(cols)] = special();
        break;
    }
    const Vector want = naiveGemv(w, x);
    const std::span<const float> all(x);
    for (const std::uint32_t split : splits) {
        Vector got(rows, 1.0f);
        fn(w, all.first(split), all.subspan(split), got);
        for (std::uint32_t r = 0; r < rows; ++r) {
            const auto g = std::bit_cast<std::uint32_t>(got[r]);
            const auto e = std::bit_cast<std::uint32_t>(want[r]);
            // A NaN's payload is not compared: when two NaNs meet in an
            // add, the result carries the first operand's, and GCC may
            // emit either operand first (the naive loop's spilled
            // accumulator goes second). Whether an output is NaN, and
            // every other bit pattern, must match.
            const bool bothNan = std::isnan(got[r]) && std::isnan(want[r]);
            if (g != e && !bothNan) {
                std::ostringstream os;
                os << rows << "x" << cols << " fill "
                   << static_cast<int>(fill) << " split " << split
                   << " row " << r << ": 0x" << std::hex << g
                   << " want 0x" << e;
                return os.str();
            }
        }
    }
    return "";
}

/**
 * Every output of @p fn bit-equal to the naive row loop: row
 * counts 1..40 around the 16-row panel, narrow and wide columns, the
 * 256x288 RMC1 top L0 and the 2560-wide RMC3 bottom layers, each under
 * every fill; every head/tail split up to 33 columns, and the empty,
 * one-column and middle splits beyond.
 */
void
expectBitEqualToNaive(GemvFn fn)
{
    Rng rng(0x6e3dULL);
    const auto splitsOf = [](std::uint32_t cols) {
        std::vector<std::uint32_t> s;
        if (cols <= 33) {
            for (std::uint32_t k = 0; k <= cols; ++k)
                s.push_back(k);
        } else {
            s = {0, 1, cols / 2, cols - 1, cols};
        }
        return s;
    };
    std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes;
    for (std::uint32_t rows = 1; rows <= 40; ++rows) {
        for (const std::uint32_t cols : {1u, 2u, 5u, 33u, 288u})
            shapes.emplace_back(rows, cols);
    }
    shapes.emplace_back(256, 288);  // RMC1 top L0
    shapes.emplace_back(2560, 13);  // RMC3 bottom L0
    shapes.emplace_back(1024, 2560); // RMC3 bottom L1
    for (const auto &[rows, cols] : shapes) {
        for (const GemvFill fill :
             {GemvFill::Rounding, GemvFill::SpecialW, GemvFill::SpecialX}) {
            const std::string bad =
                gemvMismatch(fn, rows, cols, fill, splitsOf(cols), rng);
            ASSERT_EQ(bad, "");
        }
    }
}

TEST(Gemv, BitEqualToNaiveRowLoop)
{
    // The body gemv() picks for this CPU; each body is also checked on
    // its own below.
    expectBitEqualToNaive(gemv);
}

TEST(Gemv, PortableBodyBitEqualToNaiveRowLoop)
{
    expectBitEqualToNaive(gemvBody<GemvKernel::Portable>);
}

TEST(Gemv, Sse2BodyBitEqualToNaiveRowLoop)
{
#if defined(__x86_64__)
    ASSERT_TRUE(gemvKernelSupported(GemvKernel::Sse2))
        << "every x86-64 host has SSE2";
#endif
    if (!gemvKernelSupported(GemvKernel::Sse2))
        GTEST_SKIP() << "not an x86-64 build: no SSE2 body";
    expectBitEqualToNaive(gemvBody<GemvKernel::Sse2>);
}

TEST(Gemv, Avx2BodyBitEqualToNaiveRowLoop)
{
    if (!gemvKernelSupported(GemvKernel::Avx2))
        GTEST_SKIP() << "this CPU has no AVX2: the AVX2 body cannot run";
    expectBitEqualToNaive(gemvBody<GemvKernel::Avx2>);
}

TEST(Gemv, TwoSegmentLayerEqualsConcatenatedInput)
{
    const FcLayer layer(40, 19, Activation::Relu, 11);
    Vector head(32);
    Vector tail(8);
    for (std::size_t i = 0; i < head.size(); ++i)
        head[i] = 0.03f * static_cast<float>(i) - 0.4f;
    for (std::size_t i = 0; i < tail.size(); ++i)
        tail[i] = 0.5f - 0.07f * static_cast<float>(i);
    const Vector split = layer.forward(head, tail);
    const Vector joined = layer.forward(concat(head, tail));
    ASSERT_EQ(split.size(), joined.size());
    for (std::size_t i = 0; i < split.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(split[i]),
                  std::bit_cast<std::uint32_t>(joined[i]));
    }
}

TEST(Mlp, ReluClampsHiddenLayers)
{
    Mlp mlp(4, {8, 2}, Activation::None, 7);
    const Vector out = mlp.layers().front().forward({1, -1, 0.5f, 0});
    for (const float v : out)
        EXPECT_GE(v, 0.0f);
}

TEST(Mlp, SigmoidOutputInUnitInterval)
{
    Mlp mlp(4, {8, 1}, Activation::Sigmoid, 7);
    const Vector out = mlp.forward({10, -10, 3, 0.5f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0], 0.0f);
    EXPECT_LT(out[0], 1.0f);
}

TEST(Mlp, ParamBytesMatchShapes)
{
    Mlp mlp(4, {8, 2}, Activation::None, 7);
    // (4*8 + 8) + (8*2 + 2) floats.
    EXPECT_EQ(mlp.paramBytes(), (40u + 18u) * sizeof(float));
}

TEST(Embedding, ValuesAreDeterministicAndBounded)
{
    EmbeddingTableSpec spec{3, 100, 16, 42};
    for (int i = 0; i < 50; ++i) {
        const float v = spec.value(i % 100, i % 16);
        EXPECT_EQ(v, spec.value(i % 100, i % 16));
        EXPECT_GE(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Embedding, RowBytesRoundTripsThroughFloats)
{
    EmbeddingTableSpec spec{1, 10, 8, 5};
    std::vector<float> filled(spec.dim);
    spec.fillRows(3, 1, filled);
    std::vector<std::uint8_t> raw(spec.vectorBytes());
    std::memcpy(raw.data(), filled.data(), raw.size());
    const Vector row = spec.row(3);
    for (std::uint32_t d = 0; d < 8; ++d) {
        float v;
        std::memcpy(&v, raw.data() + d * sizeof(float), sizeof(float));
        EXPECT_EQ(v, row[d]);
    }
}

/**
 * The per-row serializer fillRows() replaced, kept as the reference:
 * one scalar element at a time, exactly as the table load wrote rows.
 */
std::vector<float>
referenceRows(const EmbeddingTableSpec &spec, std::uint64_t firstRow,
              std::uint64_t count)
{
    const std::uint64_t tableHash = hashCombine(spec.seed, spec.tableId);
    std::vector<float> out;
    for (std::uint64_t r = firstRow; r < firstRow + count; ++r) {
        for (std::uint32_t d = 0; d < spec.dim; ++d)
            out.push_back(
                hashToUnitFloat(hashCombine(tableHash, (r << 8) ^ d)));
    }
    return out;
}

/**
 * "" when @p kernel's rows [firstRow, firstRow + count) of @p spec
 * equal value() and the reference element by element, bit for bit;
 * otherwise the first mismatch.
 */
std::string
rowsMismatch(RowKernel kernel, const EmbeddingTableSpec &spec,
             std::uint64_t firstRow, std::uint64_t count)
{
    // Poisoned, so an element the body skips cannot pass by luck.
    std::vector<float> got(count * spec.dim,
                           std::numeric_limits<float>::quiet_NaN());
    spec.fillRowsWith(kernel, firstRow, count, got);
    const std::vector<float> want = referenceRows(spec, firstRow, count);
    for (std::uint64_t r = 0; r < count; ++r) {
        for (std::uint32_t d = 0; d < spec.dim; ++d) {
            const std::size_t i = r * spec.dim + d;
            const float value = spec.value(firstRow + r, d);
            if (std::bit_cast<std::uint32_t>(got[i]) !=
                    std::bit_cast<std::uint32_t>(value) ||
                std::bit_cast<std::uint32_t>(want[i]) !=
                    std::bit_cast<std::uint32_t>(value)) {
                std::ostringstream os;
                os << "table " << spec.tableId << " dim " << spec.dim
                   << " row " << firstRow + r << " d " << d << ": got "
                   << got[i] << ", value() " << value << ", reference "
                   << want[i];
                return os.str();
            }
        }
    }
    return "";
}

/** Every shape the synthesiser sees, through one body. */
void
expectRowsBitEqual(RowKernel kernel)
{
    // Whole tables: odd and even dims around every vector width, and
    // past 256, where d reaches into the row's bits of the key.
    for (const std::uint32_t dim : {1u, 3u, 4u, 7u, 8u, 16u, 17u, 32u,
                                    64u, 100u, 300u}) {
        const EmbeddingTableSpec spec{dim % 5, 41, dim, 0x5eed + dim};
        ASSERT_EQ(rowsMismatch(kernel, spec, 0, spec.numRows), "");
        ASSERT_EQ(rowsMismatch(kernel, spec, 17, 1), "");
    }
    // A table whose last flash page is partial: 1000 RMC1 rows are
    // 31 full 4 KiB pages of 32 rows and a last page of 8.
    const EmbeddingTableSpec rmc1Table{6, 1000, 32, 99};
    for (std::uint64_t first = 0; first < rmc1Table.numRows; first += 32) {
        const std::uint64_t count =
            std::min<std::uint64_t>(32, rmc1Table.numRows - first);
        ASSERT_EQ(rowsMismatch(kernel, rmc1Table, first, count), "");
    }
    // Rows far out in a production-sized table, and zero rows.
    const EmbeddingTableSpec big{3, std::uint64_t{1} << 40, 64, 7};
    ASSERT_EQ(rowsMismatch(kernel, big, big.numRows - 5, 5), "");
    ASSERT_EQ(rowsMismatch(kernel, big, 0, 0), "");
    // A sharded sub-model keeps the parent's global table ids, which
    // seed the content.
    const ModelConfig sub =
        rmc2().withRowsPerTable(96).withTableSubset({29, 4, 17});
    const DlrmModel model(sub, Weights::ShapesOnly);
    ASSERT_EQ(model.embedding().tables()[0].tableId, 29u);
    for (const EmbeddingTableSpec &spec : model.embedding().tables())
        ASSERT_EQ(rowsMismatch(kernel, spec, 0, spec.numRows), "");
}

TEST(EmbeddingRows, FillRowsBitEqualToValue)
{
    // The body fillRows() picks for this CPU.
    const EmbeddingTableSpec spec{2, 300, 32, 11};
    std::vector<float> got(spec.numRows * spec.dim);
    spec.fillRows(0, spec.numRows, got);
    const std::vector<float> want = referenceRows(spec, 0, spec.numRows);
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
}

TEST(EmbeddingRows, PortableBodyBitEqualToValue)
{
    ASSERT_TRUE(rowKernelSupported(RowKernel::Portable));
    expectRowsBitEqual(RowKernel::Portable);
}

TEST(EmbeddingRows, Avx512BodyBitEqualToValue)
{
    if (!rowKernelSupported(RowKernel::Avx512))
        GTEST_SKIP() << "this CPU has no AVX-512 F/DQ/VL: the AVX-512 "
                        "body cannot run";
    expectRowsBitEqual(RowKernel::Avx512);
}

TEST(Embedding, SlsReferenceSumsRows)
{
    EmbeddingTableSpec spec{0, 10, 4, 1};
    const std::vector<std::uint64_t> idx{2, 2, 5};
    const Vector pooled = spec.slsReference(idx);
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(pooled[d],
                        2 * spec.value(2, d) + spec.value(5, d));
    }
}

TEST(Embedding, SlsReferenceIsRowOrderFold)
{
    // Bit-equal to folding materialized rows in lookup order.
    EmbeddingTableSpec spec{3, 64, 16, 9};
    const std::vector<std::uint64_t> idx{7, 63, 0, 7, 21, 42, 5, 7};
    Vector fold(spec.dim, 0.0f);
    for (const std::uint64_t i : idx)
        accumulate(fold, spec.row(i));
    const Vector pooled = spec.slsReference(idx);
    ASSERT_EQ(pooled.size(), fold.size());
    for (std::size_t d = 0; d < fold.size(); ++d) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(pooled[d]),
                  std::bit_cast<std::uint32_t>(fold[d]));
    }
}

TEST(Dlrm, TopInputIsInteractionConcat)
{
    const ModelConfig c = rmc1();
    // 8 tables x dim 32 + bottom output 32 = 288.
    EXPECT_EQ(c.topInputDim(), 288u);
    EXPECT_EQ(c.denseInputDim(), 128u);
    EXPECT_EQ(c.bottomOutputDim(), 32u);
}

TEST(Dlrm, BottomWidthsIncludeInput)
{
    const ModelConfig c = rmc1();
    const auto shapes = c.bottomShapes();
    ASSERT_EQ(shapes.size(), 2u); // Table V has Lb0, Lb1 only
    EXPECT_EQ(shapes[0], (LayerShape{128, 64}));
    EXPECT_EQ(shapes[1], (LayerShape{64, 32}));
}

struct MlpSizeCase
{
    const char *name;
    double paperMb;
};

// Print a case as its model name so the discovered test names are stable;
// gtest's default byte dump would embed the address held in `name`.
void
PrintTo(const MlpSizeCase &c, std::ostream *os)
{
    *os << c.name;
}

class MlpSizeTest : public ::testing::TestWithParam<MlpSizeCase>
{
};

TEST_P(MlpSizeTest, MatchesTableIII)
{
    const auto param = GetParam();
    const DlrmModel shapes(modelByName(param.name), Weights::ShapesOnly);
    const double mb =
        static_cast<double>(shapes.bottomMlp().paramBytes() +
                            shapes.topMlp().paramBytes()) /
        (1024.0 * 1024.0);
    // Within 10% of the paper's reported MLP size.
    EXPECT_NEAR(mb, param.paperMb, param.paperMb * 0.10)
        << param.name;
}

INSTANTIATE_TEST_SUITE_P(TableIII, MlpSizeTest,
                         ::testing::Values(MlpSizeCase{"RMC1", 0.39},
                                           MlpSizeCase{"RMC2", 1.23},
                                           MlpSizeCase{"RMC3", 12.23}));

TEST(ModelZoo, TableIIIParameters)
{
    const ModelConfig c1 = rmc1();
    EXPECT_EQ(c1.embDim, 32u);
    EXPECT_EQ(c1.numTables, 8u);
    EXPECT_EQ(c1.lookupsPerTable, 80u);

    const ModelConfig c2 = rmc2();
    EXPECT_EQ(c2.embDim, 64u);
    EXPECT_EQ(c2.numTables, 32u);
    EXPECT_EQ(c2.lookupsPerTable, 120u);

    const ModelConfig c3 = rmc3();
    EXPECT_EQ(c3.embDim, 32u);
    EXPECT_EQ(c3.numTables, 10u);
    EXPECT_EQ(c3.lookupsPerTable, 20u);

    // MLP-dominated extremes do one lookup per table (Section VI-C).
    EXPECT_EQ(ncf().lookupsPerTable, 1u);
    EXPECT_EQ(wnd().lookupsPerTable, 1u);
}

TEST(ModelZoo, ThirtyGbEmbeddings)
{
    for (const ModelConfig &c : allModels()) {
        EXPECT_NEAR(static_cast<double>(c.embeddingBytes()), 30e9,
                    30e9 * 0.01)
            << c.name;
    }
}

TEST(ModelZoo, UnknownNameIsFatal)
{
    EXPECT_EXIT(modelByName("RMC9"), ::testing::ExitedWithCode(1),
                "unknown model");
}

TEST(Dlrm, ReferenceInferenceIsDeterministicCtr)
{
    ModelConfig cfg = rmc1().withRowsPerTable(512);
    const DlrmModel model(cfg);
    const Sample s = model.makeSample(7);
    const float a = model.referenceInference(s);
    const float b = model.referenceInference(s);
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0.0f);
    EXPECT_LT(a, 1.0f);
}

TEST(Dlrm, PooledPathEqualsFullInference)
{
    ModelConfig cfg = rmc1().withRowsPerTable(256);
    const DlrmModel model(cfg);
    const Sample s = model.makeSample(11);
    const Vector pooled = model.embedding().pooledReference(s.indices);
    EXPECT_EQ(model.referenceInference(s),
              model.inferenceWithPooled(s.dense, pooled));
}

TEST(Dlrm, HostReferenceCtrIsPinned)
{
    // The weight and table seeds decide every CTR; a fixed sample's
    // CTR pins them to the bits every earlier build produced.
    const DlrmModel model(rmc1().withRowsPerTable(512));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(
                  model.referenceInference(model.makeSample(7))),
              0x3eec0e3bu);
}

TEST(Dlrm, HostReferenceCtrIsPinnedForEveryZooModel)
{
    // One fixed sample per zoo model, CTR bits taken from the row-loop
    // GEMV: every layer shape, 1-row outputs and partial panels
    // included, must keep the bits the old kernel produced.
    const std::pair<const char *, std::uint32_t> pinned[] = {
        {"RMC1", 0x3eec0e3bu}, {"RMC2", 0x3f3642a9u},
        {"RMC3", 0x3e01bd02u}, {"NCF", 0x3f02793eu},
        {"WnD", 0x3f0baa61u},
    };
    const std::vector<ModelConfig> zoo = allModels();
    ASSERT_EQ(zoo.size(), std::size(pinned));
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        ModelConfig cfg = zoo[i];
        ASSERT_EQ(cfg.name, pinned[i].first);
        const DlrmModel model(cfg.withRowsPerTable(512));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(
                      model.referenceInference(model.makeSample(7))),
                  pinned[i].second)
            << cfg.name;
    }
}

TEST(ShapesOnlyModel, KeepsShapesAndParamBytesButNoWeights)
{
    const ModelConfig cfg = rmc1().withRowsPerTable(512);
    const DlrmModel shapes(cfg, Weights::ShapesOnly);
    EXPECT_FALSE(shapes.hasWeights());
    EXPECT_TRUE(DlrmModel(cfg).hasWeights());

    std::vector<LayerShape> got;
    std::uint64_t bytes = 0;
    for (const Mlp *mlp : {&shapes.bottomMlp(), &shapes.topMlp()}) {
        bytes += mlp->paramBytes();
        for (const FcLayer &layer : mlp->layers()) {
            EXPECT_FALSE(layer.hasWeights());
            EXPECT_TRUE(layer.weights().data().empty());
            got.push_back(LayerShape{layer.inputs(), layer.outputs()});
        }
    }
    EXPECT_TRUE(got == cfg.allShapes());
    std::uint64_t params = 0;
    for (const LayerShape &s : got)
        params += std::uint64_t{s.inputs} * s.outputs + s.outputs;
    EXPECT_EQ(bytes, params * sizeof(float));
}

TEST(ShapesOnlyModelDeathTest, EveryForwardPassExits)
{
    const DlrmModel shapes(rmc1().withRowsPerTable(512),
                           Weights::ShapesOnly);
    const Sample s = shapes.makeSample(3);
    const Vector pooled = shapes.embedding().pooledReference(s.indices);
    EXPECT_EXIT((void)shapes.referenceInference(s),
                ::testing::ExitedWithCode(1), "shapes-only");
    EXPECT_EXIT((void)shapes.inferenceWithPooled(s.dense, pooled),
                ::testing::ExitedWithCode(1), "timing-only device");
    EXPECT_EXIT((void)shapes.bottomMlp().forward(s.dense),
                ::testing::ExitedWithCode(1), "keeps no MLP weights");
}

TEST(Dlrm, WithTotalEmbeddingGbSetsRows)
{
    ModelConfig cfg = rmc1();
    cfg.withTotalEmbeddingGB(30.0);
    // 30 GB / (8 tables * 128 B).
    EXPECT_NEAR(static_cast<double>(cfg.rowsPerTable),
                30e9 / (8.0 * 128.0), 1.0);
}

} // namespace
} // namespace rmssd::model
