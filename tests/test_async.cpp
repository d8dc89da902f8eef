/**
 * @file
 * Tests for the asynchronous submit/poll surface: depth-1 equivalence
 * with the blocking infer() path (outputs, clocks and stats), FIFO
 * completion ordering, drain() idempotence, bounded queue depth, the
 * cross-request pipelining win, least-outstanding routing against
 * real per-shard queue depths, and pinned fingerprints of seeded
 * completion streams on a device, a cluster and a tenant fleet.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/tenant.h"
#include "cluster/cluster.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::engine {
namespace {

/** Small functional model: tables load into flash in milliseconds. */
model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

std::unique_ptr<RmSsd>
makeFunctionalDevice(const model::ModelConfig &config)
{
    RmSsdOptions options;
    options.functional = true;
    auto device = std::make_unique<RmSsd>(config, options);
    device->loadTables();
    return device;
}

TEST(AsyncDevice, Depth1SubmitDrainMatchesInferExactly)
{
    const model::ModelConfig config = tinyConfig();
    auto blocking = makeFunctionalDevice(config);
    auto async = makeFunctionalDevice(config);
    ASSERT_EQ(async->maxInflight(), 1u);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    std::vector<std::vector<model::Sample>> batches;
    for (int r = 0; r < 6; ++r)
        batches.push_back(gen.nextBatch(3));

    for (const auto &batch : batches) {
        const InferenceOutcome viaInfer = blocking->infer(batch);

        const RequestId id = async->submit(batch);
        const auto completions = async->drain();
        ASSERT_EQ(completions.size(), 1u);
        EXPECT_EQ(completions[0].id, id);
        const InferenceOutcome &viaSubmit = completions[0].outcome;

        EXPECT_EQ(viaSubmit.latency, viaInfer.latency);
        EXPECT_EQ(viaSubmit.completionCycle, viaInfer.completionCycle);
        ASSERT_EQ(viaSubmit.outputs.size(), viaInfer.outputs.size());
        for (std::size_t i = 0; i < viaInfer.outputs.size(); ++i)
            EXPECT_EQ(viaSubmit.outputs[i], viaInfer.outputs[i]);
    }

    // The full timing and traffic state marched in lock-step.
    EXPECT_EQ(async->deviceNow(), blocking->deviceNow());
    EXPECT_EQ(async->lastCompletion(), blocking->lastCompletion());
    EXPECT_EQ(async->hostBytesRead().value(),
              blocking->hostBytesRead().value());
    EXPECT_EQ(async->hostBytesWritten().value(),
              blocking->hostBytesWritten().value());
    EXPECT_EQ(async->inferences().value(),
              blocking->inferences().value());
}

TEST(AsyncDevice, FifoCompletionOrderingAboveDepth1)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    device->setMaxInflight(4);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    std::vector<RequestId> submitted;
    for (int r = 0; r < 7; ++r)
        submitted.push_back(device->submit(gen.nextBatch(2)));

    std::vector<RequestId> completed;
    while (const auto completion = device->poll())
        completed.push_back(completion->id);
    for (const AsyncCompletion &completion : device->drain())
        completed.push_back(completion.id);

    ASSERT_EQ(completed.size(), submitted.size());
    for (std::size_t i = 0; i < submitted.size(); ++i)
        EXPECT_EQ(completed[i], submitted[i]) << "position " << i;
    // Completion cycles are monotone in submission order (FIFO
    // retire through the shared result path).
    EXPECT_EQ(device->inflight(), 0u);
}

TEST(AsyncDevice, DrainIsIdempotent)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    device->setMaxInflight(2);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    device->submit(gen.nextBatch(2));
    device->submit(gen.nextBatch(2));
    EXPECT_EQ(device->drain().size(), 2u);
    EXPECT_TRUE(device->drain().empty());
    EXPECT_FALSE(device->poll().has_value());
    EXPECT_FALSE(device->retireNext());
}

TEST(AsyncDevice, BackpressureBoundsQueueDepth)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    device->setMaxInflight(2);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    for (int r = 0; r < 6; ++r) {
        device->submit(gen.nextBatch(2));
        EXPECT_LE(device->inflight(), 2u);
    }
    // Shrinking the bound retires the oldest requests immediately.
    device->setMaxInflight(1);
    EXPECT_LE(device->inflight(), 1u);
    device->drain();
}

} // namespace
} // namespace rmssd::engine

namespace rmssd::cluster {
namespace {

model::ModelConfig
timingConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(100000);
    config.lookupsPerTable = 16;
    return config;
}

TEST(AsyncCluster, Depth1SubmitDrainMatchesInferExactly)
{
    const model::ModelConfig config = timingConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    RmSsdCluster blocking(config, options);
    RmSsdCluster async(config, options);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    for (int r = 0; r < 5; ++r) {
        const auto batch = gen.nextBatch(4);
        const engine::InferenceOutcome viaInfer = blocking.infer(batch);
        const engine::RequestId id = async.submit(batch);
        const auto completions = async.drain();
        ASSERT_EQ(completions.size(), 1u);
        EXPECT_EQ(completions[0].id, id);
        EXPECT_EQ(completions[0].outcome.latency, viaInfer.latency);
        EXPECT_EQ(completions[0].outcome.completionCycle,
                  viaInfer.completionCycle);
    }
    EXPECT_EQ(async.deviceNow(), blocking.deviceNow());
    EXPECT_EQ(async.lastCompletion(), blocking.lastCompletion());
    EXPECT_EQ(async.hostBytesRead().value(),
              blocking.hostBytesRead().value());
    EXPECT_EQ(async.hostBytesWritten().value(),
              blocking.hostBytesWritten().value());
}

TEST(AsyncCluster, DepthPropagatesToShards)
{
    const model::ModelConfig config = timingConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(4);
    EXPECT_EQ(fleet.maxInflight(), 4u);
    for (std::uint32_t d = 0; d < fleet.numDevices(); ++d)
        EXPECT_EQ(fleet.shard(d).maxInflight(), 4u);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    for (int r = 0; r < 6; ++r) {
        fleet.submit(gen.nextBatch(2));
        EXPECT_LE(fleet.inflight(), 4u);
    }
    EXPECT_EQ(fleet.drain().size(), 6u);
    EXPECT_EQ(fleet.inflight(), 0u);
    for (std::uint32_t d = 0; d < fleet.numDevices(); ++d)
        EXPECT_EQ(fleet.shard(d).inflight(), 0u);
}

TEST(AsyncCluster, LeastOutstandingPrefersShorterQueue)
{
    // Replicate the hottest table so the replica router has a real
    // choice, then pile work onto shard 0: the replicated lookups
    // must route to the genuinely shorter queue on shard 1.
    model::ModelConfig config = timingConfig();
    workload::TraceGenerator histGen(config, workload::localityK(0.3));
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.sharding.replicateHottest = 1;
    options.policy = RouterPolicy::LeastOutstanding;
    options.histograms = histGen.tableHistograms(2000);
    RmSsdCluster fleet(config, options);

    std::uint32_t replicatedTable = config.numTables;
    for (std::uint32_t g = 0; g < config.numTables; ++g) {
        if (fleet.shardPlan().replicated(g))
            replicatedTable = g;
    }
    ASSERT_LT(replicatedTable, config.numTables);

    fleet.shard(0).advanceClockTo(Cycle{1'000'000'000});
    const std::uint64_t before0 =
        fleet.shard(0).embeddingEngine().lookups().value();
    const std::uint64_t before1 =
        fleet.shard(1).embeddingEngine().lookups().value();

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    fleet.infer(gen.nextBatch(4));

    // The busy shard still serves its exclusively-owned tables, but
    // every replicated lookup lands on the idle shard.
    const std::uint64_t delta0 =
        fleet.shard(0).embeddingEngine().lookups().value() - before0;
    const std::uint64_t delta1 =
        fleet.shard(1).embeddingEngine().lookups().value() - before1;
    EXPECT_GT(delta1, delta0);
}

TEST(AsyncCluster, PipeliningRaisesSaturatedClusterThroughput)
{
    // A cached x2 fleet leaves flash headroom at depth 1 (the §IV-D
    // presend only overlaps the host window, not the shards' engine
    // time across requests); a deeper queue must convert that
    // headroom into throughput at saturating load.
    model::ModelConfig config = timingConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.device.evCache.enabled = true;
    options.device.evCache.expectedHitRatio = 0.8;
    options.device.coalesceIndices = true;
    RmSsdCluster fleet(config, options);

    workload::TraceConfig trace = workload::localityK(0.0);
    trace.hotRowsPerTable = 200;
    workload::TraceGenerator gen(config, trace);
    // Warm the shard caches so both depths measure warm behaviour.
    for (int r = 0; r < 40; ++r)
        fleet.infer(gen.nextBatch(1));

    workload::ServingConfig sc;
    sc.arrivalQps = 5e6; // effectively back-to-back (saturation)
    sc.batchSize = 1;
    sc.numRequests = 80;
    sc.queueDepth = 1;
    const workload::ServingResult depth1 =
        workload::simulateServing(fleet, gen, sc);
    sc.queueDepth = 4;
    const workload::ServingResult depth4 =
        workload::simulateServing(fleet, gen, sc);

    EXPECT_GE(depth4.achievedQps, depth1.achievedQps * 1.15);
    EXPECT_GT(depth4.meanQueueDepth, depth1.meanQueueDepth);
}

} // namespace
} // namespace rmssd::cluster

// ---- Pinned completion streams ---------------------------------------
//
// One seeded mix of submit, harvestDoneBy, retireNext, setMaxInflight
// (shrink and grow), poll, drain and resetTiming per backend. Every
// completion's id, completion cycle, latency and output bits, the
// clock after every step, and the final stats dump fold into one
// FNV-1a fingerprint. The pinned values were taken from the code
// before the device and the cluster shared one request queue; any
// reordering of intercept, backpressure, issue or retire moves them.
// The dump has no flash.ch<N>.blockErases lines; filtering those
// always-zero lines out of the older code's dump gives these values.

namespace rmssd::engine {
namespace {

/** FNV-1a over raw bytes. */
class StreamHash
{
  public:
    void add(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(std::uint64_t value) { add(&value, sizeof value); }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Run the seeded op mix on @p dev; @p submitOne issues one request
 * drawn with the given RNG. @return the stream fingerprint
 */
std::uint64_t
completionStreamHash(InferenceDevice &dev,
                     const std::function<RequestId(Rng &)> &submitOne,
                     std::uint64_t seed)
{
    Rng rng(seed);
    StreamHash hash;
    const auto record = [&hash](const AsyncCompletion &completion) {
        hash.add(completion.id);
        hash.add(completion.outcome.completionCycle.raw());
        hash.add(completion.outcome.latency.raw());
        const std::vector<float> &out = completion.outcome.outputs;
        hash.add(out.size());
        hash.add(out.data(), out.size() * sizeof(float));
    };
    for (int step = 0; step < 240; ++step) {
        switch (rng.nextBounded(20)) {
          case 0: case 1: case 2: case 3: case 4: case 5: case 6:
            hash.add(submitOne(rng));
            break;
          case 7: case 8: case 9: {
            const Cycle next = dev.nextDoneCycle();
            const Cycle base =
                next == kNeverCycle ? dev.deviceNow() : next;
            const Cycle slack{
                rng.nextBounded(2) == 0 ? 0 : rng.nextBounded(20000)};
            hash.add(dev.harvestDoneBy(base + slack));
            break;
          }
          case 10: case 11:
            hash.add(dev.retireNext() ? 1 : 0);
            break;
          case 12: case 13:
            dev.setMaxInflight(
                1 + static_cast<std::uint32_t>(rng.nextBounded(6)));
            break;
          case 14: case 15: case 16:
            while (const auto completion = dev.poll())
                record(*completion);
            break;
          case 17: case 18:
            for (const AsyncCompletion &completion : dev.drain())
                record(completion);
            break;
          default:
            if (rng.nextBounded(4) == 0)
                dev.resetTiming();
            break;
        }
        hash.add(dev.inflight());
        hash.add(dev.deviceNow().raw());
    }
    for (const AsyncCompletion &completion : dev.drain())
        record(completion);
    hash.add(dev.deviceNow().raw());
    hash.add(dev.lastCompletion().raw());
    StatsRegistry registry;
    dev.registerStats(registry, "dev");
    std::ostringstream dump;
    registry.dump(dump);
    const std::string text = dump.str();
    hash.add(text.data(), text.size());
    return hash.value();
}

/** Tier holding @p frac of the embedding bytes, hottest rows first. */
std::shared_ptr<host::EmbeddingTier>
provisionTier(const model::DlrmModel &model,
              const workload::TraceGenerator &gen, double frac)
{
    const model::ModelConfig &cfg = model.config();
    const engine::TierPlan plan = engine::planHostTier(
        cfg.rowsPerTable, Bytes{cfg.vectorBytes()},
        workload::planTierShares(gen.tableHistograms(4096)),
        gen.hotRowHeats(),
        Bytes{static_cast<std::uint64_t>(
            static_cast<double>(cfg.embeddingBytes()) * frac)});
    auto tier = std::make_shared<host::EmbeddingTier>(model);
    tier->provision(plan);
    return tier;
}

/**
 * A request of 1-3 samples from @p gen, or — one time in two — one
 * sample that touches a single random table with up to 256 lookups,
 * so that on a fleet a later request can finish ahead of older ones.
 */
std::vector<model::Sample>
mixedRequest(const model::ModelConfig &config,
             workload::TraceGenerator &gen, Rng &rng)
{
    if (rng.nextBounded(2) != 0)
        return gen.nextBatch(
            1 + static_cast<std::uint32_t>(rng.nextBounded(3)));
    model::Sample sample;
    sample.dense.assign(config.denseInputDim(), 0.5f);
    sample.indices.resize(config.numTables);
    const std::uint64_t table = rng.nextBounded(config.numTables);
    const std::uint64_t lookups = 1 + rng.nextBounded(256);
    for (std::uint64_t l = 0; l < lookups; ++l)
        sample.indices[table].push_back(
            rng.nextBounded(config.rowsPerTable));
    return {sample};
}

workload::TraceConfig
skewedTrace()
{
    workload::TraceConfig trace = workload::localityK(0.3);
    trace.hotRowsPerTable = 32;
    return trace;
}

TEST(PinnedStreams, FunctionalDeviceBehindAHostTier)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    workload::TraceGenerator gen(config, skewedTrace());
    device->attachHostTier(provisionTier(device->model(), gen, 0.25));
    device->setMaxInflight(4);
    const std::uint64_t hash = completionStreamHash(
        *device,
        [&](Rng &rng) {
            return device->submit(mixedRequest(config, gen, rng));
        },
        7);
    EXPECT_GT(device->tierSliceHits(), 0u);
    EXPECT_EQ(hash, 0x890c9d5206457ad4ULL);
}

TEST(PinnedStreams, HedgedClusterBehindAHostTier)
{
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator histGen(config, workload::localityK(0.0));
    cluster::ClusterOptions options;
    options.sharding.numDevices = 2;
    options.sharding.replicateHottest = 1;
    options.histograms = histGen.tableHistograms(2000);
    options.hedge.enabled = true;
    options.hedge.queueThreshold = 1;
    options.device.functional = true;
    cluster::RmSsdCluster fleet(config, options);
    workload::TraceGenerator gen(config, skewedTrace());
    fleet.attachHostTier(provisionTier(fleet.model(), gen, 0.25));
    fleet.setMaxInflight(4);
    const std::uint64_t hash = completionStreamHash(
        fleet,
        [&](Rng &rng) {
            return fleet.submit(mixedRequest(config, gen, rng));
        },
        11);
    EXPECT_GT(fleet.hedgesIssued().value(), 0u);
    EXPECT_GT(fleet.tierSliceHits(), 0u);
    // Some requests here are served by the tier in full. They are
    // ready at their scatter time, so a harvest probing
    // nextDoneCycle() retires them in ready order.
    EXPECT_EQ(hash, 0xc4c7a4266c9637b6ULL);
}

TEST(PinnedStreams, TenantFleetOverACluster)
{
    std::vector<catalog::TenantSpec> specs(2);
    specs[0].id = "a";
    specs[0].config = tinyConfig();
    specs[0].trace = skewedTrace();
    specs[1].id = "b";
    specs[1].config = tinyConfig().withRowsPerTable(256);
    specs[1].trace = workload::localityK(1);
    catalog::FleetOptions options;
    options.numDevices = 2;
    options.device.functional = true;
    options.hostTierBytes = Bytes{1u << 16};
    catalog::TenantFleet fleet(specs, options);
    fleet.setMaxInflight(4);
    std::vector<workload::TraceGenerator> gens;
    for (const catalog::TenantSpec &spec : specs)
        gens.emplace_back(spec.config, spec.trace);
    const std::uint64_t hash = completionStreamHash(
        fleet,
        [&](Rng &rng) {
            const std::size_t i = rng.nextBounded(gens.size());
            return fleet.submitTenant(
                i, mixedRequest(specs[i].config, gens[i], rng));
        },
        13);
    EXPECT_GT(fleet.tierSliceHits(), 0u);
    EXPECT_EQ(hash, 0xb79df4164e2e3054ULL);
}

} // namespace
} // namespace rmssd::engine
