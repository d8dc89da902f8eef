/**
 * @file
 * Unit tests for the model layer: tensors, MLP, embedding tables, the
 * DLRM reference, and the Table III model zoo.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <span>
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

TEST(Tensor, ConcatAndAccumulate)
{
    Vector a{1, 2};
    const Vector b{3, 4};
    EXPECT_EQ(concat(a, b), (Vector{1, 2, 3, 4}));
    accumulate(a, b);
    EXPECT_EQ(a, (Vector{4, 6}));
}

/** The naive one-row loop gemv() must reproduce bit for bit. */
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

TEST(Gemv, BitEqualToNaiveRowLoop)
{
    // Row counts below, at, between and above multiples of the row
    // block; one column; every head/tail split including an empty tail
    // (and an empty head). Each row adds moderate random terms between
    // a 2^60 product in its first column and the exact negation in its
    // last, so every partial sum rounds at 2^60's ulp: reordering any
    // of a row's adds changes the float result, not only hidden
    // low-order bits of the double accumulator.
    Rng rng(0x6e3dULL);
    const auto moderate = [&rng] {
        const float v = static_cast<float>(1.0 + 63.0 * rng.nextDouble());
        return rng.nextBounded(2) ? v : -v;
    };
    const float big = 0x1.0p30f;
    const std::uint32_t rowCounts[] = {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31};
    const std::uint32_t colCounts[] = {1, 2, 5, 33, 288};
    for (const std::uint32_t rows : rowCounts) {
        for (const std::uint32_t cols : colCounts) {
            Matrix w(rows, cols);
            Vector x(cols);
            for (float &v : x)
                v = moderate();
            for (std::uint32_t r = 0; r < rows; ++r) {
                for (std::uint32_t c = 0; c < cols; ++c)
                    w.at(r, c) = moderate();
                const float sign = rng.nextBounded(2) ? 1.0f : -1.0f;
                w.at(r, 0) = sign * big;
                if (cols > 1)
                    w.at(r, cols - 1) = -sign * big;
            }
            x.front() = big;
            x.back() = big;
            const Vector want = naiveGemv(w, x);
            const std::uint32_t splits[] = {cols, 0, cols / 2, cols - 1};
            for (const std::uint32_t split : splits) {
                const std::span<const float> all(x);
                Vector got(rows);
                gemv(w, all.first(split), all.subspan(split), got);
                for (std::uint32_t r = 0; r < rows; ++r) {
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r]),
                              std::bit_cast<std::uint32_t>(want[r]))
                        << rows << "x" << cols << " split " << split
                        << " row " << r;
                }
            }
        }
    }
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
    std::vector<std::uint8_t> raw(spec.vectorBytes());
    spec.rowBytes(3, raw);
    const Vector row = spec.row(3);
    for (std::uint32_t d = 0; d < 8; ++d) {
        float v;
        std::memcpy(&v, raw.data() + d * sizeof(float), sizeof(float));
        EXPECT_EQ(v, row[d]);
    }
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
    const ModelConfig c = modelByName(param.name);
    const double mb =
        static_cast<double>(c.mlpParamBytes()) / (1024.0 * 1024.0);
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
            EXPECT_TRUE(layer.bias().empty());
            got.push_back(LayerShape{layer.inputs(), layer.outputs()});
        }
    }
    EXPECT_TRUE(got == cfg.allShapes());
    EXPECT_EQ(bytes, cfg.mlpParamBytes());
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
