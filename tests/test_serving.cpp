/**
 * @file
 * Tests for the online-serving simulation: latency recorder
 * percentiles, Poisson arrival behaviour, the queueing knee, the
 * serving loop against a serial reference host, the Poisson form
 * against the explicit arrival-list form, and batch order under
 * priority dispatch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/driver.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {
namespace {

TEST(LatencyRecorder, PercentilesOnKnownData)
{
    LatencyRecorder rec;
    for (std::uint64_t v = 1; v <= 100; ++v)
        rec.add(Nanos{v});
    EXPECT_EQ(rec.count(), 100u);
    EXPECT_EQ(rec.mean(), Nanos{50}); // (1+...+100)/100 = 50.5 -> 50
    EXPECT_EQ(rec.percentile(0.0), Nanos{1});
    EXPECT_EQ(rec.percentile(100.0), Nanos{100});
    EXPECT_NEAR(static_cast<double>(rec.percentile(50.0).raw()), 50.0,
                1.0);
    EXPECT_NEAR(static_cast<double>(rec.percentile(99.0).raw()), 99.0,
                1.0);
    EXPECT_EQ(rec.max(), Nanos{100});
}

TEST(LatencyRecorder, InterleavedAddAndQuery)
{
    LatencyRecorder rec;
    rec.add(Nanos{10});
    EXPECT_EQ(rec.percentile(50.0), Nanos{10});
    rec.add(Nanos{20});
    rec.add(Nanos{30});
    EXPECT_EQ(rec.percentile(100.0), Nanos{30});
    EXPECT_EQ(rec.percentile(0.0), Nanos{10});
}

TEST(LatencyRecorder, EmptyIsZero)
{
    LatencyRecorder rec;
    EXPECT_EQ(rec.mean(), Nanos{});
    EXPECT_EQ(rec.max(), Nanos{});
    EXPECT_EQ(rec.percentile(99.0), Nanos{});
    // Out-of-range percentiles on an empty recorder are also zero.
    EXPECT_EQ(rec.percentile(-1.0), Nanos{});
    EXPECT_EQ(rec.percentile(1000.0), Nanos{});
}

TEST(LatencyRecorder, PercentileClampsOutOfRange)
{
    // Regression: config arithmetic (e.g. "100 * (1 - 1/n)" with n=0)
    // can produce out-of-range percentiles; they must degrade to the
    // min/max sample, never index out of bounds.
    LatencyRecorder rec;
    for (std::uint64_t v = 1; v <= 10; ++v)
        rec.add(Nanos{v});
    EXPECT_EQ(rec.percentile(150.0), rec.percentile(100.0));
    EXPECT_EQ(rec.percentile(-5.0), rec.percentile(0.0));
    EXPECT_EQ(rec.percentile(150.0), Nanos{10});
    EXPECT_EQ(rec.percentile(-5.0), Nanos{1});
}

class ServingFixture : public ::testing::Test
{
  protected:
    ServingFixture()
        : config_(model::rmc1()
                      .withRowsPerTable(100000))
    {
        config_.lookupsPerTable = 16;
        device_ = std::make_unique<engine::RmSsd>(
            config_, engine::RmSsdOptions{});
        device_->loadTables();
        gen_ = std::make_unique<TraceGenerator>(config_,
                                                localityK(0.3));
    }

    model::ModelConfig config_;
    std::unique_ptr<engine::RmSsd> device_;
    std::unique_ptr<TraceGenerator> gen_;
};

TEST_F(ServingFixture, LowLoadLatencyNearServiceTime)
{
    // Far below saturation, queueing is negligible: p50 is close to
    // the idle single-request latency.
    device_->resetTiming();
    const Nanos idle =
        device_->infer(gen_->nextBatch(1)).latency;

    ServingConfig sc;
    sc.arrivalQps = 50.0; // ~3% of saturation
    sc.batchSize = 1;
    sc.numRequests = 100;
    const ServingResult r = simulateServing(*device_, *gen_, sc);
    EXPECT_LT(r.p50, idle * 2);
    EXPECT_GE(r.p50, idle / 2);
}

TEST_F(ServingFixture, TailGrowsWithLoad)
{
    const double peak = workload::steadyStateQps(*device_, 1, 8);

    ServingConfig low;
    low.arrivalQps = 0.3 * peak;
    low.numRequests = 150;
    const ServingResult rLow = simulateServing(*device_, *gen_, low);

    ServingConfig high = low;
    high.arrivalQps = 0.95 * peak;
    const ServingResult rHigh = simulateServing(*device_, *gen_, high);

    EXPECT_GT(rHigh.p99, rLow.p99);
    EXPECT_GE(rHigh.achievedQps, rLow.achievedQps);
}

TEST_F(ServingFixture, PercentilesAreOrdered)
{
    ServingConfig sc;
    sc.arrivalQps = 400.0;
    sc.numRequests = 120;
    const ServingResult r = simulateServing(*device_, *gen_, sc);
    EXPECT_LE(r.p50, r.p95);
    EXPECT_LE(r.p95, r.p99);
    EXPECT_LE(r.p99, r.maxLatency);
    EXPECT_EQ(r.requests, 120u);
}

class CachedServingFixture : public ::testing::Test
{
  protected:
    CachedServingFixture()
        : config_(model::rmc1().withRowsPerTable(100000))
    {
        config_.lookupsPerTable = 16;
    }

    /** Device with a hot-set-sized EV cache. */
    std::unique_ptr<engine::RmSsd>
    makeDevice(double expectedHitRatio = 0.8)
    {
        engine::RmSsdOptions opt;
        opt.evCache.enabled = true;
        opt.evCache.expectedHitRatio = expectedHitRatio;
        opt.coalesceIndices = true;
        auto dev = std::make_unique<engine::RmSsd>(config_, opt);
        dev->loadTables();
        return dev;
    }

    /** Steady-state hit ratio of a serving run on trace knob @p k. */
    ServingResult
    serve(engine::RmSsd &dev, double k, const ServingConfig &sc)
    {
        // A small hot set warms the cache within the short test run,
        // so the second-half figure really is steady state.
        TraceConfig tc = localityK(k);
        tc.hotRowsPerTable = 200;
        TraceGenerator gen(config_, tc);
        return simulateServing(dev, gen, sc);
    }

    model::ModelConfig config_;
};

TEST_F(CachedServingFixture, ExportsHitRatioStats)
{
    auto dev = makeDevice();
    ServingConfig sc;
    sc.arrivalQps = 100.0;
    sc.numRequests = 80;
    const ServingResult r = serve(*dev, 0.0, sc);

    // Per-request samples cover the whole run; the steady-state
    // figure (second half, cache warm) lands near the K=0 trace's
    // 80 % hot-access fraction since the cache spans the hot set.
    EXPECT_EQ(r.requestHitRatio.count(), 80u);
    EXPECT_GT(r.steadyHitRatio, 0.5);
    EXPECT_LE(r.steadyHitRatio, 1.0);
    EXPECT_GE(r.steadyHitRatio, r.requestHitRatio.mean() - 0.25);
    EXPECT_EQ(r.replans, 0u); // replanThreshold defaults to off
}

TEST_F(CachedServingFixture, SteadyHitRatioMonotoneInLocality)
{
    // The locality knob K shifts mass out of the Zipf head
    // (K = 0/1/2 -> 80/45/30 % hot accesses); the measured
    // steady-state hit ratio must fall with it.
    ServingConfig sc;
    sc.arrivalQps = 100.0;
    sc.numRequests = 60;

    auto hot = makeDevice();
    auto mid = makeDevice();
    auto cold = makeDevice();
    const double rHot = serve(*hot, 0.0, sc).steadyHitRatio;
    const double rMid = serve(*mid, 1.0, sc).steadyHitRatio;
    const double rCold = serve(*cold, 2.0, sc).steadyHitRatio;

    EXPECT_GT(rHot, rMid);
    EXPECT_GT(rMid, rCold);
    EXPECT_GT(rCold, 0.0);
}

TEST_F(CachedServingFixture, ReplansWhenPlannedRatioIsWrong)
{
    // Plan for a 99 % hit ratio the K=2 trace can't deliver: the
    // serving loop's periodic drift check must re-run the kernel
    // search at least once and settle on the measured ratio.
    auto dev = makeDevice(0.99);
    ServingConfig sc;
    sc.arrivalQps = 100.0;
    sc.numRequests = 64;
    sc.replanThreshold = 0.05;
    sc.replanCheckEvery = 16;
    const ServingResult r = serve(*dev, 2.0, sc);

    EXPECT_GE(r.replans, 1u);
    EXPECT_LT(dev->plannedHitRatio(), 0.9);
}

TEST_F(ServingFixture, DeterministicForSameSeed)
{
    ServingConfig sc;
    sc.arrivalQps = 300.0;
    sc.numRequests = 60;
    gen_->reset();
    const ServingResult a = simulateServing(*device_, *gen_, sc);
    gen_->reset();
    const ServingResult b = simulateServing(*device_, *gen_, sc);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
}

// ---- The serving loop against a serial reference host --------------

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

/** Outcome of serialReference: the loop's headline numbers. */
struct SerialRun
{
    LatencyRecorder latency;
    double achievedQps = 0.0;
};

/**
 * The simplest host there is: Poisson arrivals from Rng(config.seed),
 * the host clock advanced to each arrival, then submit and drain
 * poll(); latency = completion - arrival.
 */
SerialRun
serialReference(engine::InferenceDevice &device, TraceGenerator &gen,
                const ServingConfig &config)
{
    device.resetTiming();
    device.setMaxInflight(1);
    Rng rng(config.seed);
    double arrivalNanos = 0.0;
    std::deque<Cycle> arrivals;
    Cycle last;
    SerialRun run;
    const auto record = [&](const engine::AsyncCompletion &completion) {
        const Cycle end = completion.outcome.completionCycle;
        run.latency.add(cyclesToNanos(end - arrivals.front()));
        arrivals.pop_front();
        last = std::max(last, end);
    };
    for (std::uint32_t r = 0; r < config.numRequests; ++r) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        arrivalNanos += -1e9 / config.arrivalQps * std::log(u);
        const Cycle arrival = nanosToCycles(
            Nanos{static_cast<std::uint64_t>(arrivalNanos)});
        if (device.deviceNow() < arrival)
            device.advanceHostClock(
                cyclesToNanos(arrival - device.deviceNow()));
        arrivals.push_back(arrival);
        device.submit(gen.nextBatch(config.batchSize));
        while (const auto completion = device.poll())
            record(*completion);
    }
    for (const engine::AsyncCompletion &completion : device.drain())
        record(completion);
    run.achievedQps =
        config.numRequests / nanosToSeconds(cyclesToNanos(last));
    return run;
}

TEST(ServingLoop, Depth1ReplaysSerialReference)
{
    // At depth 1 the eager-completion loop must replay the serial
    // host's device schedule bit-for-bit, on a single device, behind
    // a host tier (whose DRAM time submit charges before its
    // backpressure retire) and on a sharded fleet.
    const model::ModelConfig config = tinyConfig();
    TraceConfig trace = localityK(0.3);
    trace.hotRowsPerTable = 32;
    trace.tableHotFractions = {1.0, 1.0};

    const auto makeDevice = [&]() -> std::unique_ptr<engine::RmSsd> {
        engine::RmSsdOptions options;
        options.functional = true;
        auto device = std::make_unique<engine::RmSsd>(config, options);
        device->loadTables();
        return device;
    };
    const auto makeTiered = [&]() -> std::unique_ptr<engine::RmSsd> {
        auto device = makeDevice();
        const TraceGenerator heat(config, trace);
        const engine::TierPlan plan = engine::planHostTier(
            config.rowsPerTable, Bytes{config.vectorBytes()},
            planTierShares(heat.tableHistograms(4096)),
            heat.hotRowHeats(), Bytes{config.embeddingBytes() / 4});
        auto tier = std::make_shared<host::EmbeddingTier>(device->model());
        tier->provision(plan);
        device->attachHostTier(std::move(tier));
        return device;
    };
    const auto makeFleet =
        [&]() -> std::unique_ptr<engine::InferenceDevice> {
        cluster::ClusterOptions options;
        options.sharding.numDevices = 2;
        return std::make_unique<cluster::RmSsdCluster>(config, options);
    };
    const std::vector<
        std::pair<const char *,
                  std::function<std::unique_ptr<engine::InferenceDevice>()>>>
        devices = {{"device", makeDevice},
                   {"tiered", makeTiered},
                   {"fleet x2", makeFleet}};

    for (const auto &[name, make] : devices) {
        for (const double qps : {500.0, 5e6}) {
            SCOPED_TRACE(std::string(name) + " @ " + std::to_string(qps));
            const auto looped = make();
            const auto serial = make();
            TraceGenerator loopGen(config, trace);
            TraceGenerator serialGen(config, trace);
            ServingConfig sc;
            sc.arrivalQps = qps;
            sc.numRequests = 40;
            const ServingResult r = simulateServing(*looped, loopGen, sc);
            const SerialRun ref = serialReference(*serial, serialGen, sc);

            EXPECT_EQ(r.meanLatency, ref.latency.mean());
            EXPECT_EQ(r.p50, ref.latency.percentile(50.0));
            EXPECT_EQ(r.p95, ref.latency.percentile(95.0));
            EXPECT_EQ(r.p99, ref.latency.percentile(99.0));
            EXPECT_EQ(r.maxLatency, ref.latency.max());
            EXPECT_EQ(r.achievedQps, ref.achievedQps);
            EXPECT_EQ(looped->deviceNow(), serial->deviceNow());
            EXPECT_EQ(looped->lastCompletion(), serial->lastCompletion());
        }
    }
}

/** Field-by-field equality of two serving results. */
void
expectSameResult(const ServingResult &a, const ServingResult &b)
{
    const auto sameDist = [](const Distribution &x, const Distribution &y) {
        EXPECT_EQ(x.count(), y.count());
        EXPECT_EQ(x.sum(), y.sum());
        EXPECT_EQ(x.min(), y.min());
        EXPECT_EQ(x.max(), y.max());
    };
    EXPECT_EQ(a.offeredQps, b.offeredQps);
    EXPECT_EQ(a.achievedQps, b.achievedQps);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_EQ(a.requests, b.requests);
    sameDist(a.requestHitRatio, b.requestHitRatio);
    EXPECT_EQ(a.steadyHitRatio, b.steadyHitRatio);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.migratedPages, b.migratedPages);
    EXPECT_EQ(a.tierHitRatio, b.tierHitRatio);
    EXPECT_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_EQ(a.meanDepthOnSubmit, b.meanDepthOnSubmit);
    sameDist(a.queueWaitNanos, b.queueWaitNanos);
    sameDist(a.serviceNanos, b.serviceNanos);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.depthAdjustments, b.depthAdjustments);
    EXPECT_EQ(a.finalDepth, b.finalDepth);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
        SCOPED_TRACE("class " + std::to_string(i));
        const ClassServingResult &x = a.classes[i];
        const ClassServingResult &y = b.classes[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.requests, y.requests);
        EXPECT_EQ(x.deadlineMisses, y.deadlineMisses);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
        EXPECT_EQ(x.p99, y.p99);
        EXPECT_EQ(x.maxLatency, y.maxLatency);
        EXPECT_EQ(x.meanLatency, y.meanLatency);
        EXPECT_EQ(x.meanQueueWait, y.meanQueueWait);
        EXPECT_EQ(x.achievedQps, y.achievedQps);
        EXPECT_EQ(x.meanInflight, y.meanInflight);
        EXPECT_EQ(x.tierHitRatio, y.tierHitRatio);
    }
}

/**
 * The arrivals the Poisson form draws from Rng(sc.seed) for zero, one
 * or two classes: one exponential gap per request, then a class pick
 * by share with two classes.
 */
std::vector<Arrival>
poissonTwoClassArrivals(const ServingConfig &sc)
{
    const std::vector<ServingClass> &classes = sc.slo.classes;
    Rng rng(sc.seed);
    double arrivalNanos = 0.0;
    std::vector<Arrival> arrivals;
    for (std::uint32_t r = 0; r < sc.numRequests; ++r) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        arrivalNanos += -1e9 / sc.arrivalQps * std::log(u);
        Arrival arrival;
        arrival.at = nanosToCycles(
            Nanos{static_cast<std::uint64_t>(arrivalNanos)});
        if (classes.size() > 1) {
            const double pick =
                rng.nextDouble() * (classes[0].share + classes[1].share);
            arrival.cls = pick < classes[0].share ? 0 : 1;
        }
        arrivals.push_back(arrival);
    }
    return arrivals;
}

TEST(ServingLoop, PoissonFormReplaysFromSeed)
{
    // The Poisson form is the explicit-list form over arrivals drawn
    // from Rng(config.seed): one exponential gap per request, then a
    // class pick by share only with two or more classes. The
    // benchmark's latency check replays exactly this sequence.
    //
    // The generator form also draws its batches ahead on a second
    // thread, while the list form below draws each inline at
    // dispatch. Around the ring's wrap (one slot short, exact, one
    // over, ten laps) the device must see the same bytes in the same
    // order: equal results, equal stats dumps, and generators left at
    // the same stream position. The ring holds 16 samples' worth of
    // batches, at least three (serving.h).
    const model::ModelConfig config = tinyConfig();
    TraceConfig trace = localityK(0.3);
    trace.hotRowsPerTable = 32;
    ServingClass premium;
    premium.name = "premium";
    premium.priority = 1;
    premium.deadline = Nanos{200'000};
    ServingClass bulk;
    bulk.name = "bulk";
    bulk.share = 3.0;
    const auto makeDevice = [&] {
        engine::RmSsdOptions options;
        options.functional = true;
        options.evCache.enabled = true;
        auto device = std::make_unique<engine::RmSsd>(config, options);
        device->loadTables();
        return device;
    };
    const auto statsDump = [](const engine::InferenceDevice &device) {
        StatsRegistry registry;
        device.registerStats(registry, "dev");
        std::ostringstream dump;
        registry.dump(dump);
        return dump.str();
    };
    const std::vector<std::vector<ServingClass>> classSets = {
        {}, {premium, bulk}};
    for (const std::vector<ServingClass> &classes : classSets) {
        for (const std::uint32_t batch : {1u, 3u, 8u}) {
            const std::uint32_t ring = std::max(3u, 16u / batch);
            for (const std::uint32_t requests :
                 {1u, ring - 1, ring, ring + 1, 10 * ring}) {
                SCOPED_TRACE(std::to_string(classes.size()) +
                             " class(es), batch " + std::to_string(batch) +
                             ", " + std::to_string(requests) +
                             " requests");
                ServingConfig sc;
                sc.arrivalQps = 20'000.0;
                sc.batchSize = batch;
                sc.numRequests = requests;
                sc.queueDepth = 4;
                sc.slo.classes = classes;

                const auto poissonDevice = makeDevice();
                TraceGenerator poissonGen(config, trace);
                const ServingResult poisson =
                    simulateServing(*poissonDevice, poissonGen, sc);

                const auto listDevice = makeDevice();
                TraceGenerator listGen(config, trace);
                const ServingResult listed = simulateServing(
                    *listDevice, poissonTwoClassArrivals(sc),
                    [&](std::uint32_t) {
                        return listDevice->submit(listGen.nextBatch(batch));
                    },
                    sc);

                expectSameResult(poisson, listed);
                EXPECT_EQ(statsDump(*poissonDevice), statsDump(*listDevice));
                const model::Sample x = poissonGen.next();
                const model::Sample y = listGen.next();
                EXPECT_EQ(x.dense, y.dense);
                EXPECT_EQ(x.indices, y.indices);
                if (classes.size() > 1 && requests == 10 * ring) {
                    EXPECT_GT(poisson.classes[0].requests, 0u);
                    EXPECT_GT(poisson.classes[1].requests, 0u);
                }
            }
        }
    }
}

/**
 * Synchronous fake backend: submit() serves each request inline at a
 * fixed service time, and each batch is recorded in the order it
 * reaches the device.
 */
class RecordingDevice final : public engine::InferenceDevice
{
  public:
    RecordingDevice(const model::ModelConfig &config, Nanos service)
        : model_(config), service_(nanosToCycles(service))
    {
    }

    engine::InferenceOutcome
    infer(std::span<const model::Sample> samples) override
    {
        if (batches.size() == failAt)
            throw std::runtime_error("injected submit failure");
        batches.emplace_back(samples.begin(), samples.end());
        const Cycle start = now_;
        now_ = now_ + service_;
        last_ = now_;
        engine::InferenceOutcome outcome;
        outcome.latency = cyclesToNanos(now_ - start);
        outcome.completionCycle = now_;
        return outcome;
    }
    /** Serves inline and queues the completion: depth is always 1. */
    engine::RequestId
    submit(std::span<const model::Sample> samples) override
    {
        const engine::RequestId id = allocateRequestId();
        pushCompletion({id, infer(samples)});
        return id;
    }
    const model::DlrmModel &model() const override { return model_; }
    Cycle deviceNow() const override { return now_; }
    Cycle lastCompletion() const override { return last_; }
    void advanceHostClock(Nanos hostNanos) override
    {
        now_ = now_ + nanosToCycles(hostNanos);
    }
    void resetTiming() override
    {
        now_ = Cycle{};
        last_ = Cycle{};
    }
    void registerStats(StatsRegistry &, const std::string &) const override
    {
    }
    const Counter &hostBytesRead() const override { return bytes_; }
    const Counter &hostBytesWritten() const override { return bytes_; }
    std::uint32_t pipelineMicroBatch() const override { return 1; }

    std::vector<std::vector<model::Sample>> batches;
    /** The submit that throws instead of recording (none by default). */
    std::size_t failAt = SIZE_MAX;

  private:
    model::DlrmModel model_;
    Cycle service_;
    Cycle now_;
    Cycle last_;
    Counter bytes_;
};

TEST(ServingLoop, BatchesFollowDispatchOrder)
{
    // Two priority classes at a saturating rate: premium arrivals jump
    // the backlog, so dispatch order is not arrival order. Batches are
    // drawn at dispatch, so the device still sees the generator's
    // stream in submission order.
    const model::ModelConfig config = tinyConfig();
    RecordingDevice device(config, Nanos{10'000});
    TraceGenerator gen(config, localityK(0.3));

    ServingConfig sc;
    sc.arrivalQps = 5e6;
    sc.batchSize = 2;
    sc.numRequests = 60;
    ServingClass premium;
    premium.name = "premium";
    premium.priority = 1;
    ServingClass bulk;
    bulk.name = "bulk";
    bulk.share = 3.0;
    sc.slo.classes = {premium, bulk};
    const ServingResult r = simulateServing(device, gen, sc);

    ASSERT_EQ(r.classes.size(), 2u);
    EXPECT_LT(r.classes[0].meanQueueWait, r.classes[1].meanQueueWait);
    ASSERT_EQ(device.batches.size(), sc.numRequests);
    TraceGenerator fresh(config, localityK(0.3));
    for (std::size_t i = 0; i < device.batches.size(); ++i) {
        const std::vector<model::Sample> expected =
            fresh.nextBatch(sc.batchSize);
        const std::vector<model::Sample> &got = device.batches[i];
        ASSERT_EQ(got.size(), expected.size()) << i;
        for (std::size_t s = 0; s < got.size(); ++s) {
            EXPECT_EQ(got[s].dense, expected[s].dense) << i;
            EXPECT_EQ(got[s].indices, expected[s].indices) << i;
        }
    }
}

TEST(Serving, TraceAheadStopsWhenTheLoopUnwinds)
{
    // A submit that throws unwinds the loop with most of the run
    // still to draw, the producer drawing or asleep on a full ring.
    // The exception must reach the caller: the producer is stopped
    // and joined, not left to hang or to terminate the process.
    const model::ModelConfig config = tinyConfig();
    RecordingDevice device(config, Nanos{10'000});
    device.failAt = 2;
    TraceGenerator gen(config, localityK(0.3));
    ServingConfig sc;
    sc.arrivalQps = 5e6;
    sc.numRequests = 160; // ten laps of the 16-sample ring
    EXPECT_THROW(simulateServing(device, gen, sc), std::runtime_error);
    EXPECT_EQ(device.batches.size(), 2u);
}

} // namespace
} // namespace rmssd::workload
