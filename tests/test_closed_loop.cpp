/**
 * @file
 * Tests for the one closed-loop probe (workload::runClosedLoop) and
 * everything built on it: steadyStateQps, the fig18/fig19 trace probe
 * shape, the tenant-fleet probe and the device-backed system's run().
 * Each probe's result is pinned bit for bit to the value the
 * hand-written loop it replaced produced on the same input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "cluster/cluster.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/driver.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {
namespace {

model::ModelConfig
rmc1Small()
{
    return model::rmc1().withRowsPerTable(100000);
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * steadyStateQps's stream (sample s of request r is
 * makeSample(r * 131071 + s), its request count for
 * @p measureBatches micro-batches) kept @p depth deep.
 */
double
sampleStreamQps(engine::InferenceDevice &device, std::uint32_t batchSize,
                std::uint32_t measureBatches, std::uint32_t depth)
{
    const std::uint32_t mbSize =
        std::min(batchSize, device.pipelineMicroBatch());
    const std::uint32_t requests = std::max<std::uint32_t>(
        1, (measureBatches * mbSize + batchSize - 1) / batchSize);
    std::vector<model::Sample> batch(batchSize);
    device.resetTiming();
    return runClosedLoop(device, depth, requests, batchSize,
                         [&](std::uint32_t r) {
                             for (std::uint32_t s = 0; s < batchSize;
                                  ++s)
                                 batch[s] = device.model().makeSample(
                                     r * 131071ULL + s);
                             device.submit(batch);
                         })
        .samplesPerSecond();
}

TEST(ClosedLoop, SteadyStateQpsBitsPinned)
{
    engine::RmSsd dev(rmc1Small(), engine::RmSsdOptions{});
    dev.loadTables();
    EXPECT_EQ(bits(steadyStateQps(dev, 1)), 0x409a0c17a232b542ULL);
    EXPECT_EQ(bits(steadyStateQps(dev, 3)), 0x409a6a188c52346dULL);
    EXPECT_EQ(bits(steadyStateQps(dev, 8)), 0x409ad1ea78abcbf8ULL);
}

TEST(ClosedLoop, DepthFourSampleStreamBitsPinned)
{
    engine::RmSsd dev(rmc1Small(), engine::RmSsdOptions{});
    dev.loadTables();
    EXPECT_EQ(bits(sampleStreamQps(dev, 4, 8, 4)),
              0x40990da1039faad4ULL);
}

TEST(ClosedLoop, ClusterSteadyStateQpsBitsPinned)
{
    cluster::ClusterOptions options;
    options.sharding.numDevices = 2;
    cluster::RmSsdCluster fleet(rmc1Small(), options);
    EXPECT_EQ(bits(steadyStateQps(fleet, 8, 8)), 0x40a72f6c2fa688a1ULL);
}

TEST(ClosedLoop, TraceProbeBitsAndCacheCountersPinned)
{
    // fig18's shape: EmbeddingOnly with an EV cache at a quarter of a
    // flash-crowd hot set, eight requests of four samples, four deep.
    const model::ModelConfig cfg = rmc1Small();
    TraceConfig tc;
    tc.hotRowsPerTable = 512;
    tc.hotSkew = 2.0;
    tc.hotAccessFraction = 0.8;
    tc.seed = 0xf1a5c12ULL;
    engine::RmSsdOptions options;
    options.variant = engine::EngineVariant::EmbeddingOnly;
    options.evCache.enabled = true;
    options.evCache.capacityBytes = Bytes{
        tc.hotRowsPerTable * cfg.numTables * cfg.vectorBytes() / 4};
    engine::RmSsd dev(cfg, options);
    dev.loadTables();

    TraceGenerator gen(cfg, tc);
    dev.resetTiming();
    const ClosedLoopRun run =
        runClosedLoop(dev, 4, 8, 4, [&](std::uint32_t) {
            dev.submit(gen.nextBatch(4));
        });
    EXPECT_EQ(run.requests, 8u);
    EXPECT_EQ(run.samples, 32u);
    EXPECT_EQ(bits(run.samplesPerSecond()), 0x40a10b79e8852789ULL);
    EXPECT_EQ(run.samplesPerSecond(), 4.0 * run.requestsPerSecond());
    EXPECT_EQ(dev.cacheHits(), 4849u);
    EXPECT_EQ(dev.cacheMisses(), 15631u);
}

TEST(ClosedLoop, FleetProbeBitsPinned)
{
    // fig20's shape: two tenants round-robin, batch 1, depth 8.
    std::vector<catalog::TenantSpec> specs(2);
    specs[0].id = "ncf";
    specs[0].config = model::ncf().withRowsPerTable(1ull << 12);
    specs[0].trace = localityK(0.3);
    specs[1].id = "wnd";
    specs[1].config = model::wnd().withRowsPerTable(1ull << 12);
    specs[1].trace = localityK(1.0);
    catalog::FleetOptions options;
    options.numDevices = 2;
    catalog::TenantFleet fleet(specs, options);
    const ClosedLoopRun run = catalog::fleetClosedLoop(fleet);
    EXPECT_EQ(run.samples, 64u);
    EXPECT_EQ(bits(run.requestsPerSecond()), 0x40f2cccfcbe20de7ULL);
}

TEST(ClosedLoop, DeviceSystemRunResultsPinned)
{
    struct Expected
    {
        const char *system;
        std::uint64_t totalNanos;
        std::uint64_t embSsd;
        std::uint64_t hostTraffic;
        std::uint64_t hitRatioBits;
    };
    const model::ModelConfig cfg = rmc1Small();
    for (const Expected &e :
         {Expected{"RM-SSD", 18968830, 57504395, 512, 0},
          Expected{"RM-SSD+lfu", 15902705, 49328245, 512,
                   0x3fc1c54798fb5d3bULL},
          Expected{"RM-SSD x2", 10904240, 22423755, 32768, 0}}) {
        auto system = catalog::makeSystem(e.system, cfg);
        TraceGenerator gen(cfg, localityK(0.3));
        const RunResult r = system->run(gen, 4, 8, 2);
        EXPECT_EQ(r.batches, 8u) << e.system;
        EXPECT_EQ(r.samples, 32u) << e.system;
        EXPECT_EQ(r.totalNanos.raw(), e.totalNanos) << e.system;
        EXPECT_EQ(r.breakdown.embSsd.raw(), e.embSsd) << e.system;
        EXPECT_EQ(r.hostTrafficBytes.raw(), e.hostTraffic) << e.system;
        EXPECT_EQ(bits(r.cacheHitRatio), e.hitRatioBits) << e.system;
    }
}

TEST(AsyncDevice, SteadyQpsNeverWorseWithDeeperQueue)
{
    engine::RmSsd device(rmc1Small(), engine::RmSsdOptions{});
    device.loadTables();
    const double qps1 = steadyStateQps(device, 4, 8);
    const double qps4 = sampleStreamQps(device, 4, 8, 4);
    EXPECT_GT(qps1, 0.0);
    // A single flash-bound device is already saturated by the §IV-D
    // presend at depth 1; deeper queues must not lose throughput.
    EXPECT_GE(qps4, qps1 * 0.999);
}

} // namespace
} // namespace rmssd::workload
