/**
 * @file
 * Cross-geometry property tests: the flash substrate and the
 * embedding engine must stay self-consistent for any channel/die/
 * page-size configuration, not just the Table II defaults.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>

#include "engine/embedding_engine.h"
#include "engine/rm_ssd.h"
#include "flash/flash_array.h"
#include "model/model_zoo.h"
#include "sim/rng.h"

namespace rmssd::flash {
namespace {

/**
 * Geometry::decompose's inverse, written out from the layout it
 * documents: channel fastest, then die, plane, page, block.
 */
PageId
flatten(const Geometry &g, const Pba &pba)
{
    std::uint64_t ppn = pba.block;
    ppn = ppn * g.pagesPerBlock + pba.page;
    ppn = ppn * g.planesPerDie + pba.plane;
    ppn = ppn * g.diesPerChannel + pba.die;
    ppn = ppn * g.numChannels + pba.channel;
    return PageId{ppn};
}

/** (channels, diesPerChannel, pageSizeBytes). */
using GeometryParam = std::tuple<std::uint32_t, std::uint32_t,
                                 std::uint32_t>;

class GeometrySweep : public ::testing::TestWithParam<GeometryParam>
{
  protected:
    Geometry
    makeGeometry() const
    {
        Geometry g = tableIIGeometry();
        g.numChannels = std::get<0>(GetParam());
        g.diesPerChannel = std::get<1>(GetParam());
        g.pageSizeBytes = Bytes{std::get<2>(GetParam())};
        g.validate();
        return g;
    }

    NandTiming
    makeTiming() const
    {
        NandTiming t = tableIITiming();
        t.pageSizeBytes = Bytes{std::get<2>(GetParam())};
        return t;
    }
};

TEST_P(GeometrySweep, DecomposeFlattenRoundTrips)
{
    const Geometry g = makeGeometry();
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        const PageId ppn{rng.nextBounded(g.totalPages())};
        EXPECT_EQ(flatten(g, g.decompose(ppn)), ppn);
    }
}

TEST_P(GeometrySweep, ChannelsSeeBalancedStriping)
{
    const Geometry g = makeGeometry();
    FlashArray array(g, makeTiming());
    const std::uint32_t reads = 64 * g.numChannels;
    for (std::uint64_t i = 0; i < reads; ++i)
        array.readVector(Cycle{}, PageId{i}, Bytes{},
                         array.vectorTransfer(Bytes{64}), {});
    for (std::uint32_t c = 0; c < g.numChannels; ++c)
        EXPECT_EQ(array.fmc(c).vectorReads().value(), 64u);
}

TEST_P(GeometrySweep, VectorReadNeverSlowerThanPageRead)
{
    const NandTiming t = makeTiming();
    for (std::uint64_t bytes = 64; bytes <= t.pageSizeBytes.raw();
         bytes *= 2) {
        EXPECT_LE(t.vectorReadTotalCycles(Bytes{bytes}),
                  t.pageReadTotalCycles());
    }
    EXPECT_EQ(t.vectorReadTotalCycles(t.pageSizeBytes),
              t.pageReadTotalCycles());
}

TEST_P(GeometrySweep, AnalyticRateMatchesSimulatedBulkReads)
{
    const Geometry g = makeGeometry();
    const NandTiming t = makeTiming();
    FlashArray array(g, t);

    // Issue a long uniform stream of 128 B vector reads.
    const std::uint32_t reads = 512 * g.numChannels;
    Cycle done{};
    for (std::uint64_t i = 0; i < reads; ++i) {
        done = std::max(
            done,
            array
                .readVector(Cycle{i}, PageId{i % g.totalPages()},
                            Bytes{}, array.vectorTransfer(Bytes{128}), {})
                .done);
    }
    const double perRead = static_cast<double>(done.raw()) / reads;
    const double analytic =
        engine::EmbeddingEngine::steadyStateCyclesPerRead(
            g, t, Bytes{128});
    EXPECT_NEAR(perRead, analytic, analytic * 0.25)
        << "channels=" << g.numChannels
        << " dies=" << g.diesPerChannel;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeometrySweep,
    ::testing::Values(GeometryParam{1, 1, 4096},
                      GeometryParam{2, 2, 4096},
                      GeometryParam{4, 4, 4096},
                      GeometryParam{8, 2, 4096},
                      GeometryParam{4, 4, 8192},
                      GeometryParam{4, 4, 16384},
                      GeometryParam{2, 8, 4096}));

} // namespace
} // namespace rmssd::flash

namespace rmssd::engine {
namespace {

/** A float's bit pattern: device outputs equal the reference bit for bit. */
std::uint32_t
bits(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

/** (variant, fragmented). */
using MatrixParam = std::tuple<EngineVariant, bool>;

class VariantMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(VariantMatrix, FunctionalAcrossVariantAndLayout)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 4;

    RmSsdOptions opt;
    opt.functional = true;
    opt.variant = std::get<0>(GetParam());
    opt.maxExtentSectors = Sectors{std::get<1>(GetParam()) ? 32u : 0u};
    RmSsd dev(cfg, opt);
    dev.loadTables();

    for (std::uint64_t seed = 0; seed < 2; ++seed) {
        const model::Sample s = dev.model().makeSample(seed);
        const auto out = dev.infer(std::span(&s, 1));
        if (opt.variant == EngineVariant::EmbeddingOnly) {
            const model::Vector ref =
                dev.model().embedding().pooledReference(s.indices);
            ASSERT_EQ(out.outputs.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(bits(out.outputs[i]), bits(ref[i])) << i;
        } else {
            EXPECT_EQ(bits(out.outputs[0]),
                      bits(dev.model().referenceInference(s)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VariantMatrix,
    ::testing::Combine(
        ::testing::Values(EngineVariant::Searched,
                          EngineVariant::DefaultKernels,
                          EngineVariant::Naive,
                          EngineVariant::EmbeddingOnly),
        ::testing::Bool()));

} // namespace
} // namespace rmssd::engine
