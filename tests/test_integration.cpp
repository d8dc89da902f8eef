/**
 * @file
 * Cross-module integration tests: every execution path (reference,
 * decomposed FPGA plan, naive plan, embedding-only + host MLP, and
 * the runtime API) must agree functionally, and the headline
 * performance relations of the paper must hold end to end.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/mlp_engine.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "model/tensor.h"
#include "runtime/rm_api.h"
#include "workload/driver.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd {
namespace {

model::ModelConfig
tinyConfig(const char *base = "RMC1")
{
    model::ModelConfig cfg = model::modelByName(base);
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = std::min(cfg.lookupsPerTable, 6u);
    return cfg;
}

class AllPathsAgree : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllPathsAgree, EveryExecutionPathMatchesReference)
{
    const model::ModelConfig cfg = tinyConfig(GetParam());

    engine::RmSsdOptions functional;
    functional.functional = true;

    engine::RmSsd searched(cfg, functional);
    searched.loadTables();
    engine::RmSsdOptions naiveOpt = functional;
    naiveOpt.variant = engine::EngineVariant::Naive;
    engine::RmSsd naive(cfg, naiveOpt);
    naive.loadTables();
    engine::RmSsdOptions embOpt = functional;
    embOpt.variant = engine::EngineVariant::EmbeddingOnly;
    engine::RmSsd embOnly(cfg, embOpt);
    embOnly.loadTables();

    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const model::Sample s = searched.model().makeSample(seed);
        const float ref = searched.model().referenceInference(s);
        const std::span<const model::Sample> span(&s, 1);

        const auto bits = [](float v) {
            return std::bit_cast<std::uint32_t>(v);
        };
        EXPECT_EQ(bits(searched.infer(span).outputs[0]), bits(ref));
        EXPECT_EQ(bits(naive.infer(span).outputs[0]), bits(ref));

        // Embedding-only + host-side MLP equals the reference too.
        const auto pooledOut = embOnly.infer(span);
        const model::Vector pooled(pooledOut.outputs.begin(),
                                   pooledOut.outputs.end());
        EXPECT_EQ(
            bits(embOnly.model().inferenceWithPooled(s.dense, pooled)),
            bits(ref));
        EXPECT_EQ(bits(engine::decomposedForward(embOnly.model(), s.dense,
                                                 pooled)),
                  bits(ref));
    }
}

INSTANTIATE_TEST_SUITE_P(Models, AllPathsAgree,
                         ::testing::Values("RMC1", "RMC3", "NCF"));

class SearchedBitExact : public ::testing::TestWithParam<bool>
{
};

TEST_P(SearchedBitExact, OutputsAreBitEqualToReference)
{
    // The device's decomposed MLP and EV sums, with or without a host
    // tier serving whole slices, reproduce the host reference's bits.
    const bool withTier = GetParam();
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;
    engine::RmSsd device(cfg, opt);
    device.loadTables();

    workload::TraceConfig tc;
    tc.hotRowsPerTable = 32;
    tc.hotAccessFraction = 0.5;
    tc.hotSkew = 2.0;
    tc.seed = 0xb17eULL;
    tc.tableHotFractions = {1.0, 1.0};
    std::shared_ptr<host::EmbeddingTier> tier;
    if (withTier) {
        const workload::TraceGenerator planGen(cfg, tc);
        const engine::TierPlan plan = engine::planHostTier(
            cfg.rowsPerTable, Bytes{cfg.vectorBytes()},
            workload::planTierShares(planGen.tableHistograms(4096)),
            planGen.hotRowHeats(), Bytes{cfg.embeddingBytes() / 8});
        tier = std::make_shared<host::EmbeddingTier>(device.model());
        tier->provision(plan);
        device.attachHostTier(tier);
    }

    workload::TraceGenerator gen(cfg, tc);
    for (int r = 0; r < 8; ++r) {
        const std::vector<model::Sample> batch = gen.nextBatch(3);
        const auto out = device.infer(batch);
        ASSERT_EQ(out.outputs.size(), batch.size());
        for (std::size_t s = 0; s < batch.size(); ++s) {
            const float ref = device.model().referenceInference(batch[s]);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out.outputs[s]),
                      std::bit_cast<std::uint32_t>(ref))
                << "request " << r << " sample " << s;
        }
    }
    if (withTier) {
        EXPECT_GT(tier->sliceHits().value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(HostTier, SearchedBitExact,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return std::string(info.param ? "WithTier"
                                                           : "NoTier");
                         });

TEST(Integration, RuntimeApiMatchesDirectDeviceUse)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;

    runtime::RmRuntime rt(cfg, opt, 1);
    for (std::uint32_t t = 0; t < cfg.numTables; ++t) {
        const std::string path = "/t" + std::to_string(t);
        ASSERT_EQ(rt.RM_create_table(t, path), 0);
        ASSERT_GE(rt.RM_open_table(t, path), 0);
    }

    engine::RmSsd direct(cfg, opt);
    direct.loadTables();

    const model::Sample s = direct.model().makeSample(123);
    std::vector<std::uint64_t> sparse;
    std::vector<float> dense(s.dense);
    for (const auto &table : s.indices)
        sparse.insert(sparse.end(), table.begin(), table.end());

    ASSERT_TRUE(rt.RM_send_inputs(0, cfg.lookupsPerTable, sparse, dense));
    const float apiOut = rt.RM_read_outputs()[0];
    const float directOut =
        direct.infer(std::span(&s, 1)).outputs[0];
    EXPECT_NEAR(apiOut, directOut, 1e-5f);
}

TEST(Integration, FragmentedAndContiguousLayoutsAgree)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions contiguous;
    contiguous.functional = true;
    engine::RmSsdOptions fragmented = contiguous;
    fragmented.maxExtentSectors = Sectors{32};

    engine::RmSsd a(cfg, contiguous);
    a.loadTables();
    engine::RmSsd b(cfg, fragmented);
    b.loadTables();

    const model::Sample s = a.model().makeSample(55);
    const std::span<const model::Sample> span(&s, 1);
    EXPECT_NEAR(a.infer(span).outputs[0], b.infer(span).outputs[0],
                1e-6f);
}

TEST(Integration, NaiveEngineIsNoFasterThanSearched)
{
    // On an MLP-dominated model the searched+pipelined engine must
    // beat the naive mapping in steady-state throughput (Fig. 12c).
    model::ModelConfig cfg = model::rmc3();
    cfg.withRowsPerTable(4096);

    engine::RmSsdOptions opt;
    engine::RmSsd searched(cfg, opt);
    searched.loadTables();
    engine::RmSsdOptions naiveOpt;
    naiveOpt.variant = engine::EngineVariant::Naive;
    engine::RmSsd naive(cfg, naiveOpt);
    naive.loadTables();

    const double qSearched = workload::steadyStateQps(searched, 8, 8);
    const double qNaive = workload::steadyStateQps(naive, 8, 8);
    EXPECT_GT(qSearched, qNaive);
}

TEST(Integration, EmbeddingDominatedThroughputFlatInBatch)
{
    // Fig. 12a/b: embedding-dominated models plateau immediately.
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(100000);

    engine::RmSsdOptions opt;
    engine::RmSsd dev(cfg, opt);
    dev.loadTables();
    const double q1 = workload::steadyStateQps(dev, 1, 8);
    const double q16 = workload::steadyStateQps(dev, 16, 8);
    EXPECT_NEAR(q16 / q1, 1.0, 0.25);
}

TEST(Integration, MlpDominatedThroughputGrowsWithBatch)
{
    // Fig. 12c: RMC3 grows roughly linearly through small batches.
    model::ModelConfig cfg = model::rmc3();
    cfg.withRowsPerTable(100000);

    engine::RmSsdOptions opt;
    engine::RmSsd dev(cfg, opt);
    dev.loadTables();
    const double q1 = workload::steadyStateQps(dev, 1, 8);
    const double q4 = workload::steadyStateQps(dev, 4, 8);
    EXPECT_GT(q4, 3.0 * q1);
    // And it plateaus once embedding-bound.
    const double q8 = workload::steadyStateQps(dev, 8, 8);
    const double q32 = workload::steadyStateQps(dev, 32, 8);
    EXPECT_NEAR(q32 / q8, 1.0, 0.30);
}

TEST(Integration, FullRmssdBeatsAllSsdBaselines)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(100000);
    cfg.lookupsPerTable = 16;
    workload::TraceConfig tc = workload::localityK(0.3);
    tc.hotRowsPerTable = 500;

    double best = 0.0;
    double rmSsdQps = 0.0;
    for (const std::string &name :
         {std::string("SSD-S"), std::string("EMB-MMIO"),
          std::string("RecSSD"), std::string("RM-SSD")}) {
        auto sys = catalog::makeSystem(name, cfg);
        workload::TraceGenerator gen(cfg, tc);
        const double qps = sys->run(gen, 4, 6, 4).qps();
        if (name == "RM-SSD")
            rmSsdQps = qps;
        else
            best = std::max(best, qps);
    }
    EXPECT_GT(rmSsdQps, best);
}

} // namespace
} // namespace rmssd
