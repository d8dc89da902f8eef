/**
 * @file
 * Tests for the SLO-aware serving control plane: eager completion
 * (harvestDoneBy / nextDoneCycle, out-of-order cluster retires), the
 * adaptive queue-depth controller, priority/EDF dispatch with
 * deadlines, hedged requests against replicated tables, and the
 * queue-wait vs service-time breakdown plus LatencyRecorder::merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/depth_controller.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {
namespace {

TEST(LatencyRecorder, MergeEqualsAddingAllSamples)
{
    LatencyRecorder a;
    LatencyRecorder b;
    LatencyRecorder whole;
    for (std::uint64_t v : {120u, 40u, 900u, 5u}) {
        a.add(Nanos{v});
        whole.add(Nanos{v});
    }
    for (std::uint64_t v : {77u, 3000u, 61u}) {
        b.add(Nanos{v});
        whole.add(Nanos{v});
    }
    LatencyRecorder merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.mean(), whole.mean());
    EXPECT_EQ(merged.max(), whole.max());
    for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), whole.percentile(p)) << p;
    // Merging an empty recorder is a no-op; merging INTO an empty one
    // reproduces the source.
    LatencyRecorder empty;
    merged.merge(empty);
    EXPECT_EQ(merged.count(), whole.count());
    LatencyRecorder fresh;
    fresh.merge(whole);
    EXPECT_EQ(fresh.percentile(99.0), whole.percentile(99.0));
}

// ---- DepthController law --------------------------------------------

DepthControllerConfig
fastConfig()
{
    DepthControllerConfig config;
    config.minDepth = 1;
    config.maxDepth = 8;
    config.adjustEvery = 4;
    // Pin the bands and the patience so the law tests stay valid if
    // the bench-tuned defaults move.
    config.backlogHigh = 1.0;
    config.backlogLow = 0.25;
    config.waitHigh = 0.05;
    config.waitLow = 0.01;
    config.shedPatience = 1;
    return config;
}

/** Strictly increasing device clock for feeding onCompletion. */
struct FakeClock
{
    std::uint64_t now = 0;
    Nanos tick(std::uint64_t step = 1000)
    {
        now += step;
        return Nanos{now};
    }
};

TEST(DepthController, SustainedBacklogGrowsToMaxDepth)
{
    DepthController ctl(fastConfig(), 1);
    FakeClock clk;
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(10);
            ctl.onCompletion(clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 8u);
    // Multiplicative increase: 1 -> 2 -> 4 -> 8.
    EXPECT_GE(ctl.adjustments(), 3u);
}

TEST(DepthController, EmptyBacklogShedsToMinDepth)
{
    DepthController ctl(fastConfig(), 8);
    FakeClock clk;
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onCompletion(clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 1u);
}

TEST(DepthController, HoldBandHoldsAndLoadDropSheds)
{
    // Mid-band backlog: no movement (the hysteresis band).
    DepthController ctl(fastConfig(), 4);
    FakeClock clk;
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(i == 0 ? 2 : 0); // mean 0.5 — inside band
            ctl.onCompletion(clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 4u);
    const std::uint64_t adjustmentsBefore = ctl.adjustments();
    // Load drop: the backlog empties and the controller walks the
    // depth back down instead of pinning the saturated setting.
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onCompletion(clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 1u);
    EXPECT_GT(ctl.adjustments(), adjustmentsBefore);
}

TEST(DepthController, WaitShareGrowsDepthWithoutBacklog)
{
    // Below saturation the eager dispatcher keeps the dispatch queue
    // empty and the under-provisioning cost shows up as queue wait:
    // the wait share alone must drive growth.
    DepthController ctl(fastConfig(), 1);
    FakeClock clk;
    ctl.prime(Nanos{0});
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onWait(Nanos{10'000}); // 10 us waited per request
            // 100 us elapsed per completion: wait share 0.1 > high.
            ctl.onCompletion(clk.tick(100'000));
        }
    }
    EXPECT_EQ(ctl.depth(), 8u);
}

TEST(DepthController, ShedPatienceDelaysTheStepDown)
{
    DepthControllerConfig config = fastConfig();
    config.shedPatience = 3;
    DepthController ctl(config, 4);
    FakeClock clk;
    ctl.prime(Nanos{0});
    const auto quietDecision = [&] {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onCompletion(clk.tick());
        }
    };
    quietDecision();
    quietDecision();
    EXPECT_EQ(ctl.depth(), 4u); // two quiet decisions: still holding
    quietDecision();
    EXPECT_EQ(ctl.depth(), 3u); // third consecutive one sheds
    // A grow signal resets the streak.
    for (int i = 0; i < 4; ++i) {
        ctl.onBacklog(10);
        ctl.onCompletion(clk.tick());
    }
    EXPECT_EQ(ctl.depth(), 6u);
    quietDecision();
    quietDecision();
    EXPECT_EQ(ctl.depth(), 6u);
}

// ---- Serving-loop breakdown and control plane ----------------------

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

std::unique_ptr<engine::RmSsd>
makeFunctionalDevice(const model::ModelConfig &config)
{
    engine::RmSsdOptions options;
    options.functional = true;
    auto device = std::make_unique<engine::RmSsd>(config, options);
    device->loadTables();
    return device;
}

TEST(SloServing, QueueWaitPlusServiceAccountsForLatency)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    TraceGenerator gen(config, localityK(0.3));

    ServingConfig sc;
    sc.arrivalQps = 5e6; // saturating: real queueing happens
    sc.numRequests = 60;
    sc.queueDepth = 1;
    const ServingResult depth1 = simulateServing(*device, gen, sc);
    gen.reset();
    device = makeFunctionalDevice(config);
    sc.queueDepth = 4;
    const ServingResult r = simulateServing(*device, gen, sc);

    EXPECT_EQ(r.queueWaitNanos.count(), sc.numRequests);
    EXPECT_EQ(r.serviceNanos.count(), sc.numRequests);
    EXPECT_GT(r.queueWaitNanos.mean(), 0.0);
    // Per request, wait + service telescopes to the latency; across
    // the run the means must line up (1 ns rounding per term).
    EXPECT_NEAR(r.queueWaitNanos.mean() + r.serviceNanos.mean(),
                static_cast<double>(r.meanLatency.raw()), 2.0);
    // Time-weighted occupancy rises with the queue depth. It is NOT
    // capped at the host depth: the §IV-D presend overlaps the next
    // command send with the previous readout, so accept-to-completion
    // spans of more than queueDepth requests can genuinely coexist.
    EXPECT_GT(r.meanQueueDepth, 1.0);
    EXPECT_GT(r.meanQueueDepth, depth1.meanQueueDepth);
    EXPECT_GT(r.meanDepthOnSubmit, depth1.meanDepthOnSubmit);
}

TEST(SloServing, AdaptiveDepthExcludesExplicitQueueDepthSweep)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    TraceGenerator gen(config, localityK(0.3));
    ServingConfig sc;
    sc.queueDepth = 4;
    sc.slo.adaptiveDepth = true;
    EXPECT_DEATH((void)simulateServing(*device, gen, sc),
                 "mutually exclusive");
}

TEST(SloServing, ControllerConvergesUpAtSaturationDownWhenIdle)
{
    // Cached x2 fleet: depth buys real overlap at saturation (the
    // Fig. 17 setting), so the controller must walk up there — and
    // stay at the floor when the offered load is a trickle.
    model::ModelConfig config = model::rmc1().withRowsPerTable(100000);
    config.lookupsPerTable = 16;
    const auto makeFleet = [&] {
        cluster::ClusterOptions options;
        options.sharding.numDevices = 2;
        options.device.evCache.enabled = true;
        options.device.evCache.expectedHitRatio = 0.8;
        options.device.coalesceIndices = true;
        return std::make_unique<cluster::RmSsdCluster>(config, options);
    };
    TraceConfig trace = localityK(0.0);
    trace.hotRowsPerTable = 200;

    ServingConfig sc;
    sc.numRequests = 120;
    sc.slo.adaptiveDepth = true;
    sc.slo.controller.maxDepth = 4;
    sc.slo.controller.adjustEvery = 8;

    auto saturated = makeFleet();
    TraceGenerator genSat(config, trace);
    for (int r = 0; r < 40; ++r)
        saturated->infer(genSat.nextBatch(1));
    sc.arrivalQps = 5e6;
    const ServingResult sat = simulateServing(*saturated, genSat, sc);
    EXPECT_GT(sat.finalDepth, 1u);
    EXPECT_GT(sat.depthAdjustments, 0u);

    auto idle = makeFleet();
    TraceGenerator genIdle(config, trace);
    for (int r = 0; r < 40; ++r)
        idle->infer(genIdle.nextBatch(1));
    sc.arrivalQps = 0.02 * sat.achievedQps;
    const ServingResult light = simulateServing(*idle, genIdle, sc);
    EXPECT_EQ(light.finalDepth, 1u);
}

TEST(SloServing, PriorityClassJumpsTheQueueAndDeadlinesAreCounted)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    TraceGenerator gen(config, localityK(0.3));

    ServingConfig sc;
    sc.arrivalQps = 5e6; // saturating: a dispatch queue actually forms
    sc.numRequests = 160;
    ServingClass premium;
    premium.name = "premium";
    premium.share = 1.0;
    premium.priority = 1;
    premium.deadline = Nanos{50'000};
    ServingClass bulk;
    bulk.name = "bulk";
    bulk.share = 3.0;
    bulk.priority = 0;
    sc.slo.classes = {premium, bulk};
    const ServingResult r = simulateServing(*device, gen, sc);

    ASSERT_EQ(r.classes.size(), 2u);
    EXPECT_EQ(r.classes[0].requests + r.classes[1].requests,
              static_cast<std::uint64_t>(sc.numRequests));
    EXPECT_GT(r.classes[0].requests, 0u);
    EXPECT_GT(r.classes[1].requests, 0u);
    // Priority dispatch: premium requests spend less time parked in
    // the host queue, and their tail reflects it.
    EXPECT_LT(r.classes[0].meanQueueWait.raw(),
              r.classes[1].meanQueueWait.raw());
    EXPECT_LT(r.classes[0].p99.raw(), r.classes[1].p99.raw());
    // Only the deadlined class can miss, and the fleet total is the
    // per-class sum.
    EXPECT_EQ(r.classes[1].deadlineMisses, 0u);
    EXPECT_EQ(r.deadlineMisses,
              r.classes[0].deadlineMisses + r.classes[1].deadlineMisses);
}

} // namespace
} // namespace rmssd::workload

namespace rmssd::engine {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

TEST(EagerCompletion, HarvestDoneByRetiresExactlyTheFinished)
{
    const model::ModelConfig config = tinyConfig();
    RmSsdOptions options;
    options.functional = true;
    RmSsd device(config, options);
    device.loadTables();
    device.setMaxInflight(4);
    EXPECT_EQ(device.nextDoneCycle(), kNeverCycle);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const RequestId a = device.submit(gen.nextBatch(2));
    const RequestId b = device.submit(gen.nextBatch(2));
    const RequestId c = device.submit(gen.nextBatch(2));
    ASSERT_EQ(device.inflight(), 3u);

    // The earliest in-flight completion bounds the first harvest: one
    // cycle earlier retires nothing, the bound itself retires the
    // oldest request.
    const Cycle first = device.nextDoneCycle();
    ASSERT_NE(first, kNeverCycle);
    EXPECT_EQ(device.harvestDoneBy(first - Cycle{1}), 0u);
    EXPECT_GE(device.harvestDoneBy(first), 1u);
    auto completion = device.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->id, a);

    // Harvesting "everything ever" retires the rest in queue order.
    const std::uint32_t rest =
        device.harvestDoneBy(Cycle{~std::uint64_t{0}});
    EXPECT_EQ(rest, 2u);
    EXPECT_EQ(device.inflight(), 0u);
    EXPECT_EQ(device.nextDoneCycle(), kNeverCycle);
    EXPECT_EQ(device.poll()->id, b);
    EXPECT_EQ(device.poll()->id, c);
    EXPECT_FALSE(device.poll().has_value());
}

} // namespace
} // namespace rmssd::engine

namespace rmssd::cluster {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

/** Single-device EmbeddingOnly reference outputs for a batch. */
std::vector<float>
referencePooled(const model::ModelConfig &config,
                const std::vector<model::Sample> &batch)
{
    engine::RmSsdOptions options;
    options.variant = engine::EngineVariant::EmbeddingOnly;
    options.functional = true;
    engine::RmSsd device(config, options);
    device.loadTables();
    return device.infer(batch).outputs;
}

/** Host tier holding the hottest quarter of @p model's rows. */
std::shared_ptr<host::EmbeddingTier>
quarterTier(const model::DlrmModel &model)
{
    const model::ModelConfig &config = model.config();
    const workload::TraceGenerator gen(config, workload::localityK(0.3));
    const engine::TierPlan plan = engine::planHostTier(
        config.rowsPerTable, Bytes{config.vectorBytes()},
        workload::planTierShares(gen.tableHistograms(4096)),
        gen.hotRowHeats(), Bytes{config.embeddingBytes() / 4});
    auto tier = std::make_shared<host::EmbeddingTier>(model);
    tier->provision(plan);
    return tier;
}

/** A sample touching a single table with @p lookups indices. */
model::Sample
singleTableSample(const model::ModelConfig &config, std::uint32_t table,
                  std::size_t lookups)
{
    model::Sample sample;
    sample.dense.assign(config.denseInputDim(), 0.0f);
    sample.indices.resize(config.numTables);
    for (std::size_t l = 0; l < lookups; ++l)
        sample.indices[table].push_back(
            (l * 7 + 3) % config.rowsPerTable);
    return sample;
}

TEST(EagerCompletion, ClusterRetiresOutOfOrderAcrossDisjointShards)
{
    // Request A hammers a shard-0 table; request B, submitted later,
    // touches only an idle shard-1 table and finishes first. The
    // id-matched gather lets B retire while A is still in flight —
    // impossible under the old FIFO pairing.
    const model::ModelConfig config = tinyConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.embeddingOnly = true;
    options.device.functional = true;
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(4);

    std::uint32_t tableOn0 = config.numTables;
    std::uint32_t tableOn1 = config.numTables;
    for (std::uint32_t g = 0; g < config.numTables; ++g) {
        const auto &owners = fleet.shardPlan().ownersPerTable[g];
        if (owners.size() == 1 && owners[0] == 0)
            tableOn0 = g;
        if (owners.size() == 1 && owners[0] == 1)
            tableOn1 = g;
    }
    ASSERT_LT(tableOn0, config.numTables);
    ASSERT_LT(tableOn1, config.numTables);

    const std::vector<model::Sample> heavy{
        singleTableSample(config, tableOn0, 200)};
    const std::vector<model::Sample> light{
        singleTableSample(config, tableOn1, 1)};
    const engine::RequestId slow = fleet.submit(heavy);
    const engine::RequestId fast = fleet.submit(light);
    ASSERT_EQ(fleet.inflight(), 2u);

    const Cycle firstDone = fleet.nextDoneCycle();
    ASSERT_NE(firstDone, engine::kNeverCycle);
    // The head of the FIFO is NOT ready at the earliest completion —
    // the later request is.
    EXPECT_FALSE(fleet.oldestDoneBy(firstDone));
    EXPECT_EQ(fleet.harvestDoneBy(firstDone), 1u);
    auto completion = fleet.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->id, fast);
    EXPECT_EQ(fleet.inflight(), 1u);

    const auto rest = fleet.drain();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].id, slow);
    EXPECT_GT(rest[0].outcome.completionCycle,
              completion->outcome.completionCycle);
}

/**
 * Random submit / harvestDoneBy / oldestDoneBy / retireNext /
 * setMaxInflight / poll / drain steps against one device. Every
 * done-probe must agree with the per-id ready cycle: harvestDoneBy(w)
 * retires exactly the in-flight ids ready by w, nextDoneCycle() is the
 * earliest of them, oldestDoneBy(w) reads the oldest one, and every id
 * retires exactly once. After every step the queue stays within
 * maxInflight() and the device clock never moves backward.
 */
template <typename Device>
void
checkProbeAgreement(Device &dev, const model::ModelConfig &config,
                    std::uint64_t seed)
{
    workload::TraceGenerator gen(config, workload::localityK(0.3));
    Rng rng(seed);
    std::vector<engine::RequestId> open; // submitted, not yet polled
    std::set<engine::RequestId> polled;
    const auto consume = [&](engine::RequestId id) {
        EXPECT_TRUE(polled.insert(id).second) << "id " << id;
        EXPECT_EQ(std::erase(open, id), 1u) << "id " << id;
    };
    // Not-yet-retired ids in submit order with their ready cycles
    // (Cycle{0} marks a retired id whose completion is queued).
    const auto live = [&] {
        std::vector<std::pair<engine::RequestId, Cycle>> out;
        for (const engine::RequestId id : open) {
            const Cycle ready = dev.requestDoneCycle(id);
            EXPECT_NE(ready, engine::kNeverCycle) << "id " << id;
            if (ready != Cycle{0})
                out.emplace_back(id, ready);
        }
        return out;
    };
    const auto harvest = [&](Cycle when) {
        const auto before = live();
        std::uint32_t expected = 0;
        for (const auto &entry : before)
            expected += entry.second <= when ? 1 : 0;
        EXPECT_EQ(dev.harvestDoneBy(when), expected);
        for (const auto &[id, ready] : before)
            EXPECT_EQ(dev.requestDoneCycle(id) == Cycle{0}, ready <= when)
                << "id " << id;
        EXPECT_GT(dev.nextDoneCycle(), when);
        return expected;
    };

    std::size_t submitted = 0;
    Cycle lastNow = dev.deviceNow();
    for (int step = 0; step < 300; ++step) {
        const auto inflight = live();
        ASSERT_EQ(dev.inflight(), inflight.size());
        Cycle next = engine::kNeverCycle;
        for (const auto &entry : inflight)
            next = std::min(next, entry.second);
        ASSERT_EQ(dev.nextDoneCycle(), next);
        const bool queued = inflight.size() < open.size();
        const Cycle probe =
            inflight.empty()
                ? dev.deviceNow()
                : inflight[rng.nextBounded(inflight.size())].second +
                      Cycle{rng.nextBounded(3)} - Cycle{1};
        EXPECT_EQ(dev.oldestDoneBy(probe),
                  queued || (!inflight.empty() &&
                             inflight.front().second <= probe));

        switch (rng.nextBounded(15)) {
          case 0: case 1: case 2:
            open.push_back(dev.submit(gen.nextBatch(
                1 + static_cast<std::uint32_t>(rng.nextBounded(3)))));
            ++submitted;
            break;
          case 3: case 4: {
            // One table, light or heavy: on a fleet it can finish
            // ahead of older requests queued on other shards.
            const std::vector<model::Sample> one{singleTableSample(
                config,
                static_cast<std::uint32_t>(
                    rng.nextBounded(config.numTables)),
                1 + rng.nextBounded(200))};
            open.push_back(dev.submit(one));
            ++submitted;
            break;
          }
          case 5: case 6:
            if (next != engine::kNeverCycle) {
                EXPECT_EQ(harvest(next - Cycle{1}), 0u);
                EXPECT_GE(harvest(next), 1u);
            }
            break;
          case 7: case 8:
            harvest(probe);
            break;
          case 9: case 10:
            if (const auto completion = dev.poll()) {
                EXPECT_EQ(dev.requestDoneCycle(completion->id),
                          engine::kNeverCycle);
                consume(completion->id);
            }
            break;
          case 11: case 12:
            // Force-retire the oldest in-flight request, finished or
            // not; its completion queues.
            EXPECT_EQ(dev.retireNext(), !inflight.empty());
            if (!inflight.empty()) {
                EXPECT_EQ(dev.requestDoneCycle(inflight.front().first),
                          Cycle{0});
            }
            break;
          case 13: {
            // Shrink or grow the queue; a shrink retires the oldest
            // requests down to the new bound.
            const auto depth =
                1 + static_cast<std::uint32_t>(rng.nextBounded(6));
            dev.setMaxInflight(depth);
            EXPECT_EQ(dev.maxInflight(), depth);
            EXPECT_EQ(dev.inflight(),
                      std::min<std::size_t>(inflight.size(), depth));
            break;
          }
          default:
            for (const auto &completion : dev.drain())
                consume(completion.id);
            EXPECT_EQ(dev.inflight(), 0u);
            break;
        }
        EXPECT_LE(dev.inflight(), dev.maxInflight());
        EXPECT_GE(dev.deviceNow(), lastNow);
        lastNow = dev.deviceNow();
    }
    for (const auto &completion : dev.drain())
        consume(completion.id);
    EXPECT_TRUE(open.empty());
    EXPECT_EQ(polled.size(), submitted);
}

TEST(EagerCompletion, RandomProbeSequencesAgreeOnOneReadyCycle)
{
    const model::ModelConfig config = tinyConfig();
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE(seed);
        engine::RmSsd device(config, engine::RmSsdOptions{});
        device.loadTables();
        device.setMaxInflight(4);
        checkProbeAgreement(device, config, seed);

        workload::TraceGenerator histGen(config,
                                         workload::localityK(0.0));
        ClusterOptions options;
        options.sharding.numDevices = 2;
        options.sharding.replicateHottest = 1;
        options.histograms = histGen.tableHistograms(2000);
        options.hedge.enabled = true;
        options.hedge.queueThreshold = 1;
        RmSsdCluster fleet(config, options);
        fleet.setMaxInflight(4);
        checkProbeAgreement(fleet, config, seed);
        EXPECT_GT(fleet.hedgesIssued().value(), 0u);

        // The same fleet shape behind a host tier: every probe also
        // runs on the intercept-then-reshard path.
        RmSsdCluster tiered(config, options);
        tiered.attachHostTier(quarterTier(tiered.model()));
        tiered.setMaxInflight(4);
        checkProbeAgreement(tiered, config, seed);
        EXPECT_GT(tiered.tierSliceHits(), 0u);
    }
}

TEST(HedgedRequests, WinnerBytesMatchReferenceAndHedgesFire)
{
    // Replicated hot table + a backed-up home shard: the router
    // issues the lookup to both replicas and the gather takes the
    // first completion. Outputs must stay byte-exact against the
    // unsharded reference (the in-flight memcmp between winner and
    // loser enforces replica agreement).
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator histGen(config, workload::localityK(0.0));
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.sharding.replicateHottest = 1;
    options.embeddingOnly = true;
    options.device.functional = true;
    options.histograms = histGen.tableHistograms(2000);
    options.hedge.enabled = true;
    options.hedge.queueThreshold = 0; // hedge every replicated lookup
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(4);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    workload::TraceGenerator refGen(config, workload::localityK(0.3));
    for (int r = 0; r < 8; ++r) {
        const auto batch = gen.nextBatch(3);
        const std::vector<float> reference =
            referencePooled(config, refGen.nextBatch(3));
        fleet.submit(batch);
        const auto completions = fleet.drain();
        ASSERT_EQ(completions.size(), 1u);
        const std::vector<float> &sharded = completions[0].outcome.outputs;
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(sharded[i], reference[i])
                << "request " << r << " element " << i;
    }
    EXPECT_GT(fleet.hedgesIssued().value(), 0u);
    EXPECT_GE(fleet.hedgesIssued().value(), fleet.hedgeWins().value());
}

} // namespace
} // namespace rmssd::cluster

