#include "workloads.h"

#include "cluster/cluster.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "timed_device.h"

namespace rmssd::perf {

namespace {

/** Input streams derived from the run seed. */
enum Stream : std::uint64_t
{
    kServeTrace = 1,
    kArrivals = 2,
    kPlanTrace = 3,
};

/** The seed of one input stream of a run. */
std::uint64_t
deriveSeed(std::uint64_t seed, Stream stream)
{
    return hashCombine(seed, stream);
}

/** fig17/fig21's cache-friendly trace: K = 0 on 200 hot rows per table. */
workload::TraceConfig
cachedTrace(std::uint64_t seed)
{
    workload::TraceConfig trace = workload::localityK(0.0);
    trace.hotRowsPerTable = 200;
    trace.seed = seed;
    return trace;
}

/** fig18's flash-crowd trace: 512 hammered rows per table. */
workload::TraceConfig
flashCrowdTrace(std::uint64_t seed)
{
    workload::TraceConfig trace;
    trace.hotRowsPerTable = 512;
    trace.hotSkew = 2.0;
    trace.hotAccessFraction = 0.8;
    trace.seed = seed;
    return trace;
}

/**
 * Hot-head trace (fig19's shape, resized to 2^14-row tables): tables 0
 * and 1 draw every lookup from their hot set, the rest half from the
 * cold tail. The 1/16 tier splits its 8192 row slots by hot traffic,
 * 1638 to each hammered table, so their 1024-row hot sets fit whole.
 */
workload::TraceConfig
hotHeadTrace(std::uint64_t seed)
{
    workload::TraceConfig trace;
    trace.hotRowsPerTable = 1024;
    trace.hotAccessFraction = 0.5;
    trace.hotSkew = 2.0;
    trace.seed = seed;
    trace.tableHotFractions.assign(2, 1.0);
    return trace;
}

/** Serving settings shared by the SLO-loop workloads. */
workload::ServingConfig
sloLoop(std::uint32_t batchSize, std::uint32_t depth)
{
    workload::ServingConfig serving;
    serving.batchSize = batchSize;
    serving.queueDepth = depth;
    serving.slo.enabled = true;
    return serving;
}

void
buildCachedCluster(System &system, std::uint64_t seed, Tracer *tracer)
{
    system.model = model::rmc1();
    system.trace = cachedTrace(deriveSeed(seed, kServeTrace));
    system.serving = sloLoop(1, 4);
    system.warmupRequests = 1000;

    const Clock::time_point start = Clock::now();
    {
        SpanScope span(tracer, "setup.build");
        cluster::ClusterOptions options;
        options.sharding.numDevices = 4;
        options.device.evCache.enabled = true;
        options.device.evCache.expectedHitRatio = 0.8;
        options.device.coalesceIndices = true;
        system.device =
            std::make_unique<cluster::RmSsdCluster>(system.model, options);
    }
    system.setup.buildS = secondsSince(start);
}

void
buildColdSls(System &system, std::uint64_t seed, Tracer *tracer)
{
    system.model = model::rmc2();
    system.trace = workload::localityK(2.0);
    system.trace.seed = deriveSeed(seed, kServeTrace);
    system.serving = sloLoop(1, 4);

    Clock::time_point start = Clock::now();
    std::unique_ptr<engine::RmSsd> device;
    {
        SpanScope span(tracer, "setup.build");
        engine::RmSsdOptions options;
        options.variant = engine::EngineVariant::EmbeddingOnly;
        device = std::make_unique<engine::RmSsd>(system.model, options);
    }
    system.setup.buildS = secondsSince(start);
    start = Clock::now();
    {
        SpanScope span(tracer, "setup.provision");
        device->loadTables();
    }
    system.setup.provisionS = secondsSince(start);
    system.device = std::move(device);
}

void
buildDriftMigrate(System &system, std::uint64_t seed, Tracer *tracer)
{
    system.model = model::rmc1();
    // Planned for flash crowd A, serving flash crowd B: the plan is
    // stale and background migration re-stripes while serving.
    const workload::TraceConfig planned =
        flashCrowdTrace(deriveSeed(seed, kPlanTrace));
    system.trace = flashCrowdTrace(deriveSeed(seed, kServeTrace));
    system.serving = sloLoop(1, 4);
    // fig18 checks every 8 requests of 4 samples: the same 32 samples
    // between migration passes.
    system.serving.migrateCheckEvery = 32;

    Clock::time_point start = Clock::now();
    std::unique_ptr<engine::RmSsd> device;
    {
        SpanScope span(tracer, "setup.build");
        engine::RmSsdOptions options;
        options.variant = engine::EngineVariant::EmbeddingOnly;
        options.placement.enabled = true;
        options.placement.hotPageCount =
            planned.hotRowsPerTable * system.model.numTables;
        options.placement.maxSwapsPerPass = 256;
        options.placement.minObservedReads = 2048;
        options.placement.migrationDriftThreshold = 0.1;
        device = std::make_unique<engine::RmSsd>(system.model, options);
    }
    system.setup.buildS = secondsSince(start);
    start = Clock::now();
    {
        SpanScope span(tracer, "setup.provision");
        device->loadTables();
        const workload::TraceGenerator heat(system.model, planned);
        device->planPlacement(heat.hotRowHeats());
    }
    system.setup.provisionS = secondsSince(start);
    system.device = std::move(device);
}

void
buildTierFunctional(System &system, std::uint64_t seed, Tracer *tracer)
{
    system.model = model::rmc1();
    system.model.withRowsPerTable(1ull << 14);
    system.trace = hotHeadTrace(deriveSeed(seed, kServeTrace));
    // The legacy blocking loop: SLO plane off, depth 1, presend on.
    system.serving.batchSize = 1;
    system.serving.queueDepth = 1;

    Clock::time_point start = Clock::now();
    std::unique_ptr<engine::RmSsd> device;
    {
        SpanScope span(tracer, "setup.build");
        engine::RmSsdOptions options;
        options.functional = true;
        options.variant = engine::EngineVariant::Searched;
        device = std::make_unique<engine::RmSsd>(system.model, options);
    }
    system.setup.buildS = secondsSince(start);
    start = Clock::now();
    {
        SpanScope span(tracer, "setup.provision");
        device->loadTables();
        const workload::TraceGenerator heat(system.model, system.trace);
        const engine::TierPlan plan = engine::planHostTier(
            system.model.rowsPerTable, Bytes{system.model.vectorBytes()},
            workload::planTierShares(heat.tableHistograms(4096)),
            heat.hotRowHeats(),
            Bytes{system.model.embeddingBytes() / 16});
        auto tier = std::make_shared<host::EmbeddingTier>(device->model());
        tier->provision(plan);
        device->attachHostTier(std::move(tier));
    }
    system.setup.provisionS = secondsSince(start);
    system.device = std::move(device);
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    // Saturation rates and limits frozen from the default seed (1) on
    // the build that introduced the benchmark (README.md, "Trajectory").
    static const std::vector<WorkloadSpec> specs = {
        {.name = "serve_rmc1_x4_cached",
         .numRequests = 5000,
         .bisectRequests = 2000,
         .batchSize = 1,
         .satRefQps = 26880.0,
         .sloP99Us = 540.0,
         .build = buildCachedCluster},
        {.name = "sls_rmc2_cold",
         .numRequests = 2000,
         .bisectRequests = 1000,
         .batchSize = 1,
         .satRefQps = 295.3,
         .sloP99Us = 28000.0,
         .build = buildColdSls},
        {.name = "sls_rmc1_drift_migrate",
         .numRequests = 3000,
         .bisectRequests = 1000,
         .batchSize = 1,
         .satRefQps = 781.4,
         .sloP99Us = 38000.0,
         .build = buildDriftMigrate},
        {.name = "rmc1_tier_functional",
         .numRequests = 1500,
         .bisectRequests = 1000,
         .batchSize = 1,
         .satRefQps = 2198.0,
         .sloP99Us = 4700.0,
         .checkOutputs = true,
         .build = buildTierFunctional},
    };
    for (const WorkloadSpec &spec : specs) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

System
buildSystem(const WorkloadSpec &spec, std::uint64_t seed, Tracer *tracer)
{
    System system;
    spec.build(system, seed, tracer);
    system.serving.seed = deriveSeed(seed, kArrivals);
    system.gen = std::make_unique<workload::TraceGenerator>(system.model,
                                                            system.trace);
    return system;
}

void
warmUp(System &system, engine::InferenceDevice &front, Tracer *tracer)
{
    const Clock::time_point start = Clock::now();
    SpanScope span(tracer, "setup.warmup");
    for (std::uint32_t r = 0; r < system.warmupRequests; ++r)
        front.infer(system.gen->nextBatch(system.serving.batchSize));
    system.setup.warmupS = secondsSince(start);
}

} // namespace rmssd::perf
