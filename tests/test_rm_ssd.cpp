/**
 * @file
 * Device-level tests for RM-SSD: functional end-to-end equality with
 * the reference DLRM, batch partitioning, host traffic accounting
 * (Table IV's 64-byte return), and variant behaviour.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "model/tensor.h"
#include "workload/driver.h"

namespace rmssd::engine {
namespace {

/** A float's bit pattern: device outputs equal the reference bit for bit. */
std::uint32_t
bits(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 8;
    return cfg;
}

RmSsd
makeFunctionalDevice(const model::ModelConfig &cfg,
                     EngineVariant variant = EngineVariant::Searched)
{
    RmSsdOptions opt;
    opt.functional = true;
    opt.variant = variant;
    RmSsd dev(cfg, opt);
    dev.loadTables();
    return dev;
}

TEST(RmSsd, FunctionalInferenceMatchesReference)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev = makeFunctionalDevice(cfg);

    std::vector<model::Sample> batch;
    for (int i = 0; i < 3; ++i)
        batch.push_back(dev.model().makeSample(i));
    const InferenceOutcome out = dev.infer(batch);

    ASSERT_EQ(out.outputs.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        const float ref = dev.model().referenceInference(batch[i]);
        EXPECT_EQ(bits(out.outputs[i]), bits(ref)) << "sample " << i;
    }
}

TEST(RmSsd, NaiveVariantComputesSameOutputs)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd searched = makeFunctionalDevice(cfg);
    RmSsd naive = makeFunctionalDevice(cfg, EngineVariant::Naive);

    std::vector<model::Sample> batch{searched.model().makeSample(42)};
    const auto a = searched.infer(batch);
    const auto b = naive.infer(batch);
    ASSERT_EQ(a.outputs.size(), 1u);
    EXPECT_NEAR(a.outputs[0], b.outputs[0], 1e-5f);
}

TEST(RmSsd, BatchPartitioningPreservesOutputs)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev = makeFunctionalDevice(cfg);

    std::vector<model::Sample> batch;
    for (int i = 0; i < 7; ++i)
        batch.push_back(dev.model().makeSample(100 + i));

    // All at once (partitioned into micro-batches internally)...
    const auto wholesale = dev.infer(batch);
    // ...equals one-at-a-time.
    for (int i = 0; i < 7; ++i) {
        const auto single =
            dev.infer(std::span(&batch[i], 1));
        EXPECT_NEAR(single.outputs[0], wholesale.outputs[i], 1e-5f);
    }
}

TEST(RmSsd, EmbeddingOnlyVariantReturnsPooledVectors)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev =
        makeFunctionalDevice(cfg, EngineVariant::EmbeddingOnly);

    std::vector<model::Sample> batch{dev.model().makeSample(9)};
    const auto out = dev.infer(batch);
    const model::Vector ref =
        dev.model().embedding().pooledReference(batch[0].indices);
    ASSERT_EQ(out.outputs.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(bits(out.outputs[i]), bits(ref[i])) << i;
}

TEST(RmSsd, Batch1HostTrafficIs64Bytes)
{
    // Table IV: a batch-1 inference returns only the 64-byte MMIO
    // line.
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev = makeFunctionalDevice(cfg);
    std::vector<model::Sample> batch{dev.model().makeSample(1)};
    const std::uint64_t before = dev.hostBytesRead().value();
    dev.infer(batch);
    EXPECT_EQ(dev.hostBytesRead().value() - before, 64u);
}

TEST(RmSsd, LargeBatchResultsGoDma)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev = makeFunctionalDevice(cfg);
    std::vector<model::Sample> batch;
    for (int i = 0; i < 32; ++i)
        batch.push_back(dev.model().makeSample(i));
    const std::uint64_t before = dev.hostBytesRead().value();
    dev.infer(batch);
    EXPECT_EQ(dev.hostBytesRead().value() - before,
              32u * sizeof(float));
}

TEST(RmSsd, LatencyIsPositiveAndCoversEmbedding)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev = makeFunctionalDevice(cfg);
    std::vector<model::Sample> batch{dev.model().makeSample(5)};
    const auto out = dev.infer(batch);
    // At least one vector read's worth of time.
    EXPECT_GE(out.latency,
              cyclesToNanos(
                  dev.flash().timing().vectorReadTotalCycles(
                      Bytes{cfg.vectorBytes()})));
}

TEST(RmSsd, InferenceBeforeTablesIsFatal)
{
    RmSsdOptions opt;
    opt.functional = true;
    RmSsd dev(tinyConfig(), opt);
    std::vector<model::Sample> batch{dev.model().makeSample(0)};
    EXPECT_DEATH(dev.infer(batch), "tables must be loaded");
}

TEST(RmSsd, OversizedModelIsFatal)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withTotalEmbeddingGB(64.0); // device holds 32 GB
    RmSsdOptions opt;
    EXPECT_EXIT(RmSsd(cfg, opt), ::testing::ExitedWithCode(1),
                "exceed device capacity");
}

TEST(RmSsd, FragmentedTablesStillCorrect)
{
    // Multi-extent allocation exercises the translator's range walk.
    model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.functional = true;
    opt.maxExtentSectors = Sectors{64}; // fragment every 8 pages
    RmSsd dev(cfg, opt);
    dev.loadTables();

    std::vector<model::Sample> batch{dev.model().makeSample(77)};
    const auto out = dev.infer(batch);
    EXPECT_EQ(bits(out.outputs[0]),
              bits(dev.model().referenceInference(batch[0])));
}

TEST(RmSsd, SteadyStateQpsIsPositiveAndStable)
{
    model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt; // timing only
    RmSsd dev(cfg, opt);
    dev.loadTables();
    const double q1 = workload::steadyStateQps(dev, 1, 8);
    const double q8 = workload::steadyStateQps(dev, 8, 8);
    EXPECT_GT(q1, 0.0);
    // Embedding-dominated mini-model: throughput roughly flat.
    EXPECT_GT(q8, q1 * 0.5);
    EXPECT_LT(q8, q1 * 4.0);
}

TEST(RmSsd, ResetTimingIdlesTheDevice)
{
    model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    RmSsd dev(cfg, opt);
    dev.loadTables();
    std::vector<model::Sample> batch{dev.model().makeSample(0)};
    dev.infer(batch);
    EXPECT_GT(dev.deviceNow(), Cycle{});
    dev.resetTiming();
    EXPECT_EQ(dev.deviceNow(), Cycle{});
}

TEST(RmSsdDeathTest, VectorsThatDoNotTileAPageAreFatal)
{
    // 96-byte vectors: 4096 / 96 is not whole, so some row would
    // straddle two flash pages.
    model::ModelConfig cfg = tinyConfig();
    cfg.embDim = 24;
    RmSsdOptions opt;
    opt.functional = true;
    EXPECT_EXIT(RmSsd(cfg, opt), ::testing::ExitedWithCode(1),
                "embDim 24 gives 96-byte embedding vectors, which do not "
                "tile the 4096-byte flash page");
}

TEST(RmSsdDeathTest, TableExtentOffAPageBoundaryIsFatal)
{
    // 512 rows x 128 B = 128 sectors, starting one sector into a page.
    RmSsd dev(tinyConfig(), RmSsdOptions{});
    const ftl::ExtentList extents(
        std::vector<ftl::Extent>{{Lba{1}, Sectors{128}}});
    EXPECT_EXIT(dev.registerTable(TableId{}, extents),
                ::testing::ExitedWithCode(1),
                "must start and end on 8-sector flash pages");
}

TEST(RmSsd, TimingOnlyDeviceBuildsNoWeights)
{
    RmSsdOptions opt; // timing only
    const RmSsd timing(tinyConfig(), opt);
    opt.functional = true;
    const RmSsd functional(tinyConfig(), opt);
    EXPECT_FALSE(timing.model().hasWeights());
    EXPECT_TRUE(timing.model().topMlp().layers().front()
                    .weights().data().empty());
    EXPECT_TRUE(functional.model().hasWeights());
    // The kernel search reads only the layer shapes.
    EXPECT_EQ(timing.searchResult().notes,
              functional.searchResult().notes);
    EXPECT_EQ(timing.plan().microBatch, functional.plan().microBatch);
    EXPECT_EQ(timing.searchResult().embReadCycles,
              functional.searchResult().embReadCycles);
}

TEST(RmSsdDeathTest, TimingOnlyModelRefusesAForwardPass)
{
    RmSsd dev(tinyConfig(), RmSsdOptions{});
    dev.loadTables();
    const model::Sample s = dev.model().makeSample(0);
    EXPECT_EXIT((void)dev.model().referenceInference(s),
                ::testing::ExitedWithCode(1), "shapes-only");
}

TEST(RmSsd, FunctionalCtrsEqualASeparateHostModel)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev = makeFunctionalDevice(cfg);
    const model::DlrmModel host(cfg);
    std::vector<model::Sample> batch;
    for (std::uint64_t i = 0; i < 6; ++i)
        batch.push_back(host.makeSample(200 + i));
    const auto out = dev.infer(batch);
    ASSERT_EQ(out.outputs.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(bits(out.outputs[i]),
                  bits(host.referenceInference(batch[i])))
            << "sample " << i;
}

} // namespace
} // namespace rmssd::engine
