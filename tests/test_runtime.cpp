/**
 * @file
 * Tests for the semantic-aware runtime API (Section IV-D):
 * create/open/send/read flow, authentication, input validation, and
 * the pre-send pipeline.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "model/model_zoo.h"
#include "runtime/rm_api.h"

namespace rmssd::runtime {
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
    cfg.withRowsPerTable(256);
    cfg.lookupsPerTable = 4;
    return cfg;
}

engine::RmSsdOptions
functionalOptions()
{
    engine::RmSsdOptions opt;
    opt.functional = true;
    return opt;
}

/** Create + open every table; returns the last fd. */
int
setupTables(RmRuntime &rt, const model::ModelConfig &cfg)
{
    int fd = -1;
    for (std::uint32_t t = 0; t < cfg.numTables; ++t) {
        const std::string path = "/tables/t" + std::to_string(t);
        EXPECT_EQ(rt.RM_create_table(t, path), 0);
        fd = rt.RM_open_table(t, path);
        EXPECT_GE(fd, 0);
    }
    return fd;
}

/** Flatten a batch of samples into the framework array layout. */
void
flatten(const model::ModelConfig &cfg,
        const std::vector<model::Sample> &batch,
        std::vector<std::uint64_t> &sparse, std::vector<float> &dense)
{
    for (const model::Sample &s : batch) {
        dense.insert(dense.end(), s.dense.begin(), s.dense.end());
        for (std::uint32_t t = 0; t < cfg.numTables; ++t)
            sparse.insert(sparse.end(), s.indices[t].begin(),
                          s.indices[t].end());
    }
}

TEST(RmRuntime, FullFlowMatchesReference)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), /*uid=*/1000);
    const int fd = setupTables(rt, cfg);

    std::vector<model::Sample> batch;
    for (int i = 0; i < 3; ++i)
        batch.push_back(rt.device().model().makeSample(i));
    std::vector<std::uint64_t> sparse;
    std::vector<float> dense;
    flatten(cfg, batch, sparse, dense);

    ASSERT_TRUE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, dense));
    const std::vector<float> out = rt.RM_read_outputs();
    ASSERT_EQ(out.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(bits(out[i]),
                  bits(rt.device().model().referenceInference(batch[i])))
            << i;
    }
    EXPECT_GT(rt.lastLatency(), Nanos{});
}

TEST(RmRuntime, CreateRejectsDuplicatesAndBadIds)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    EXPECT_EQ(rt.RM_create_table(0, "/t0"), 0);
    EXPECT_EQ(rt.RM_create_table(0, "/t0"), -17); // EEXIST
    EXPECT_EQ(rt.RM_create_table(cfg.numTables, "/bad"), -22);
}

TEST(RmRuntime, OpenChecksOwnership)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime owner(cfg, functionalOptions(), 1000);
    EXPECT_EQ(owner.RM_create_table(0, "/t0"), 0);
    EXPECT_GE(owner.RM_open_table(0, "/t0"), 0);

    // A different uid on its own session cannot open a missing or
    // foreign file.
    RmRuntime stranger(cfg, functionalOptions(), 2000);
    EXPECT_EQ(stranger.RM_open_table(0, "/t0"), -1);
}

TEST(RmRuntime, OpenChecksTableIdMatch)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    EXPECT_EQ(rt.RM_create_table(0, "/t0"), 0);
    EXPECT_EQ(rt.RM_open_table(1, "/t0"), -1); // wrong table
}

TEST(RmRuntime, SendValidatesEverything)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    const int fd = setupTables(rt, cfg);

    std::vector<model::Sample> batch{rt.device().model().makeSample(0)};
    std::vector<std::uint64_t> sparse;
    std::vector<float> dense;
    flatten(cfg, batch, sparse, dense);

    // Bad fd.
    EXPECT_FALSE(
        rt.RM_send_inputs(-1, cfg.lookupsPerTable, sparse, dense));
    EXPECT_FALSE(
        rt.RM_send_inputs(999, cfg.lookupsPerTable, sparse, dense));
    // Wrong lookups-per-table.
    EXPECT_FALSE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable + 1, sparse, dense));
    // Truncated arrays.
    std::vector<std::uint64_t> shortSparse(sparse.begin(),
                                           sparse.end() - 1);
    EXPECT_FALSE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, shortSparse, dense));
    // Dense/sparse batch mismatch.
    std::vector<float> doubleDense = dense;
    doubleDense.insert(doubleDense.end(), dense.begin(), dense.end());
    EXPECT_FALSE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, doubleDense));
    // The valid call still works afterwards.
    EXPECT_TRUE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, dense));
}

TEST(RmRuntime, SendBeforeAllTablesOpenFails)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    EXPECT_EQ(rt.RM_create_table(0, "/t0"), 0);
    const int fd = rt.RM_open_table(0, "/t0");

    std::vector<std::uint64_t> sparse(cfg.lookupsPerSample(), 0);
    std::vector<float> dense(cfg.denseInputDim(), 0.0f);
    EXPECT_FALSE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, dense));
}

TEST(RmRuntime, SendWithOutOfRangeRowIndexFails)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    const int fd = setupTables(rt, cfg);

    std::vector<model::Sample> batch{rt.device().model().makeSample(0)};
    std::vector<std::uint64_t> sparse;
    std::vector<float> dense;
    flatten(cfg, batch, sparse, dense);
    // The last table's last lookup points one row past the table.
    sparse.back() = cfg.rowsPerTable;
    EXPECT_FALSE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, dense));
    EXPECT_EQ(rt.pendingRequests(), 0u);
    sparse.back() = cfg.rowsPerTable - 1;
    EXPECT_TRUE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, dense));
    EXPECT_EQ(rt.pendingRequests(), 1u);
}

TEST(RmRuntime, ReopeningOneTableDoesNotUnlockInference)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    EXPECT_EQ(rt.RM_create_table(0, "/t0"), 0);
    int fd = -1;
    for (std::uint32_t i = 0; i < cfg.numTables; ++i) {
        fd = rt.RM_open_table(0, "/t0");
        ASSERT_GE(fd, 0);
    }

    std::vector<std::uint64_t> sparse(cfg.lookupsPerSample(), 0);
    std::vector<float> dense(cfg.denseInputDim(), 0.0f);
    EXPECT_FALSE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparse, dense));
    EXPECT_EQ(rt.pendingRequests(), 0u);
}

TEST(RmRuntime, PreSendPipelineKeepsFifoOrder)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    const int fd = setupTables(rt, cfg);

    std::vector<model::Sample> a{rt.device().model().makeSample(1)};
    std::vector<model::Sample> b{rt.device().model().makeSample(2)};
    std::vector<std::uint64_t> sparseA, sparseB;
    std::vector<float> denseA, denseB;
    flatten(cfg, a, sparseA, denseA);
    flatten(cfg, b, sparseB, denseB);

    // Pre-send both before reading (Section IV-D's optimization).
    ASSERT_TRUE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparseA, denseA));
    ASSERT_TRUE(
        rt.RM_send_inputs(fd, cfg.lookupsPerTable, sparseB, denseB));
    EXPECT_EQ(rt.pendingRequests(), 2u);

    const float refA = rt.device().model().referenceInference(a[0]);
    const float refB = rt.device().model().referenceInference(b[0]);
    EXPECT_EQ(bits(rt.RM_read_outputs()[0]), bits(refA));
    EXPECT_EQ(bits(rt.RM_read_outputs()[0]), bits(refB));
    EXPECT_EQ(rt.pendingRequests(), 0u);
}

TEST(RmRuntime, ReadWithNothingPendingIsFatal)
{
    const model::ModelConfig cfg = tinyConfig();
    RmRuntime rt(cfg, functionalOptions(), 1000);
    EXPECT_EXIT(rt.RM_read_outputs(), ::testing::ExitedWithCode(1),
                "no pending request");
}

} // namespace
} // namespace rmssd::runtime
