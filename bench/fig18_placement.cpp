/**
 * @file
 * Fig. 18 — Frequency-aware flash data mapping (extension beyond the
 * paper): QPS and p99 latency of the linear layout versus
 * FrequencyMapping's striped hot tier under a flash-crowd trace, with
 * the device-side EV cache at /1, /4 and /16 of the hot set, plus a
 * drift scenario where background migration re-stripes a hot set the
 * offline plan never saw.
 *
 * Why placement moves the needle: an EV read occupies its die for the
 * full 2800-cycle flush but the 128 B transfer holds the channel bus
 * for only ~38 cycles, so steady-state throughput is die-bound. The
 * linear layout hash-scatters the Zipf head across dies — whichever
 * die hosts the hottest pages serializes while others idle. The
 * frequency mapping pins the hottest pages to physical pages
 * 0..hot-1, which stripe round-robin over every (channel, die) pair
 * by construction. The EV cache composes rather than competes: it
 * absorbs same-row repeats, and placement spreads the distinct-page
 * misses the cache lets through.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "cluster/sharding.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

/** Flash-crowd trace: a small, hammered hot set (512 rows/table). */
workload::TraceConfig
flashCrowdTrace(std::uint64_t seed = 0xf1a5c12ULL)
{
    workload::TraceConfig tc;
    tc.hotRowsPerTable = 512;
    tc.hotSkew = 2.0;
    tc.hotAccessFraction = 0.8;
    tc.seed = seed;
    return tc;
}

std::unique_ptr<engine::RmSsd>
makeDevice(const model::ModelConfig &cfg,
           const engine::EvCacheConfig &cache, bool frequencyMapped)
{
    engine::RmSsdOptions opt;
    // Placement tunes the flash side, so the figure measures the SLS
    // operator itself (MLP on the host): with the full engine RMC1 is
    // MLP-bound and data layout cannot move QPS by construction.
    opt.variant = engine::EngineVariant::EmbeddingOnly;
    opt.evCache = cache;
    if (frequencyMapped) {
        opt.placement.enabled = true;
        // One hot-tier slot per hot row: the flash-crowd rows land on
        // distinct 4 KB pages of the 30 GB tables.
        opt.placement.hotPageCount =
            flashCrowdTrace().hotRowsPerTable * cfg.numTables;
        opt.placement.maxSwapsPerPass = 256;
        opt.placement.minObservedReads = 2048;
        // Stop migrating once >=90% of the observed hot set already
        // sits in the striped tier; without the dead band the pass
        // chases sampling noise in the per-window ranking forever.
        opt.placement.migrationDriftThreshold = 0.1;
    }
    auto dev = std::make_unique<engine::RmSsd>(cfg, opt);
    dev->loadTables();
    return dev;
}

/** Busiest-die share of flash time: max die busy / mean die busy. */
double
dieSkew(engine::RmSsd &dev)
{
    const auto &g = dev.flash().geometry();
    std::uint64_t maxBusy = 0;
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < g.numChannels; ++c) {
        for (std::uint32_t d = 0; d < g.diesPerChannel; ++d) {
            const std::uint64_t busy =
                dev.flash().fmc(c).dieBusyCycles(d).raw();
            maxBusy = std::max(maxBusy, busy);
            total += busy;
        }
    }
    const double mean =
        static_cast<double>(total) /
        static_cast<double>(g.numChannels * g.diesPerChannel);
    return mean > 0.0 ? static_cast<double>(maxBusy) / mean : 0.0;
}

std::uint64_t
dieConflicts(engine::RmSsd &dev)
{
    const auto &g = dev.flash().geometry();
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < g.numChannels; ++c)
        total += dev.flash().fmc(c).dieConflicts().value();
    return total;
}

struct MeasuredDevice
{
    double qps = 0.0;
    workload::ServingResult serving;
    double skew = 0.0;
    std::uint64_t conflicts = 0;
};

MeasuredDevice
measure(engine::RmSsd &dev, const workload::TraceConfig &tc,
        double arrivalQps, std::uint32_t migrateCheckEvery = 0)
{
    const model::ModelConfig &cfg = dev.model().config();
    MeasuredDevice m;
    m.qps = bench::traceProbe(dev, tc).samplesPerSecond();

    workload::TraceGenerator gen(cfg, tc);
    workload::ServingConfig sc;
    sc.arrivalQps = arrivalQps;
    sc.batchSize = 4;
    sc.numRequests = 160;
    sc.queueDepth = 4;
    sc.migrateCheckEvery = migrateCheckEvery;
    const std::uint64_t conflictsBefore = dieConflicts(dev);
    m.serving = workload::simulateServing(dev, gen, sc);
    // Die occupancy resets with timing state at serving start, so the
    // skew reflects the serving run alone; the conflict counters are
    // cumulative and are differenced instead.
    m.skew = dieSkew(dev);
    m.conflicts = dieConflicts(dev) - conflictsBefore;
    return m;
}

void
runFigure()
{
    bench::banner("Fig. 18 - Frequency-aware placement",
                  "linear vs frequency mapping, flash-crowd trace "
                  "(batch 4, depth 4)");

    const model::ModelConfig cfg = model::rmc1();
    const workload::TraceConfig tc = flashCrowdTrace();

    // --- Table 1: cache scale sweep -------------------------------
    bench::TextTable sweep({"cache", "mapping", "QPS", "p99 (us)",
                            "hit%", "die skew", "die conflicts",
                            "QPS gain", "p99 gain"});
    sweep.setCaption("RMC1 cache sweep");
    struct CacheLevel
    {
        const char *label;
        std::uint64_t divisor; //!< 0 = no cache
    };
    for (const CacheLevel level :
         {CacheLevel{"none", 0}, CacheLevel{"/1", 1},
          CacheLevel{"/4", 4}, CacheLevel{"/16", 16}}) {
        engine::EvCacheConfig cache;
        if (level.divisor > 0)
            cache = bench::cacheForTrace(cfg, tc, level.divisor);

        auto linear = makeDevice(cfg, cache, false);
        auto freq = makeDevice(cfg, cache, true);
        workload::TraceGenerator heat(cfg, tc);
        freq->planPlacement(heat.hotRowHeats());

        // Same offered load for both mappings: a fixed fraction of
        // the linear device's capacity, so p99 differences are purely
        // the layout's doing.
        const double lanes =
            bench::traceProbe(*linear, tc, 8).samplesPerSecond() * 0.7;
        const MeasuredDevice l = measure(*linear, tc, lanes);
        const MeasuredDevice f = measure(*freq, tc, lanes);

        for (const auto &[name, m] :
             {std::pair<const char *, const MeasuredDevice &>{
                  "linear", l},
              std::pair<const char *, const MeasuredDevice &>{
                  "frequency", f}}) {
            sweep.addRow(
                {level.label, name, bench::fmt(m.qps, 0),
                 bench::fmt(m.serving.p99.raw() / 1e3, 1),
                 bench::fmt(m.serving.steadyHitRatio * 100.0, 1),
                 bench::fmt(m.skew, 3),
                 std::to_string(m.conflicts),
                 bench::fmt(m.qps / l.qps, 3) + "x",
                 bench::fmt(static_cast<double>(
                                l.serving.p99.raw()) /
                                static_cast<double>(std::max<
                                                    std::uint64_t>(
                                    1, m.serving.p99.raw())),
                            3) +
                     "x"});
        }
    }
    sweep.print();
    std::printf("\n");

    // --- Table 2: drift + migration recovery ----------------------
    // The offline plan stripes seed-A's hot set; serving then draws
    // from seed B (a disjoint flash crowd). Without migration the
    // planned tier is dead weight; with it the device re-learns the
    // hot set online and re-stripes while serving.
    const workload::TraceConfig trained = flashCrowdTrace();
    const workload::TraceConfig drifted = flashCrowdTrace(0xd12f7ULL);

    bench::TextTable drift({"mapping", "QPS", "p99 (us)", "die skew",
                            "migrated pages"});
    drift.setCaption("RMC1 drift (planned for A, serving B)");

    auto linearD = makeDevice(cfg, {}, false);
    const double driftLoad =
        bench::traceProbe(*linearD, drifted, 8).samplesPerSecond() * 0.7;
    const MeasuredDevice lD = measure(*linearD, drifted, driftLoad);
    drift.addRow({"linear", bench::fmt(lD.qps, 0),
                  bench::fmt(lD.serving.p99.raw() / 1e3, 1),
                  bench::fmt(lD.skew, 3), "0"});

    auto stale = makeDevice(cfg, {}, true);
    {
        workload::TraceGenerator heat(cfg, trained);
        stale->planPlacement(heat.hotRowHeats());
    }
    const MeasuredDevice sD = measure(*stale, drifted, driftLoad);
    drift.addRow({"frequency (stale plan)", bench::fmt(sD.qps, 0),
                  bench::fmt(sD.serving.p99.raw() / 1e3, 1),
                  bench::fmt(sD.skew, 3), "0"});

    auto migrating = makeDevice(cfg, {}, true);
    {
        workload::TraceGenerator heat(cfg, trained);
        migrating->planPlacement(heat.hotRowHeats());
    }
    const MeasuredDevice mD =
        measure(*migrating, drifted, driftLoad,
                /*migrateCheckEvery=*/8);
    drift.addRow({"frequency (during migration)",
                  bench::fmt(mD.qps, 0),
                  bench::fmt(mD.serving.p99.raw() / 1e3, 1),
                  bench::fmt(mD.skew, 3),
                  std::to_string(mD.serving.migratedPages)});

    // Same device, next serving window: the tier has been re-striped
    // for seed B, the migration traffic is gone, and the tail should
    // recover to the freshly-planned level.
    const MeasuredDevice rD = measure(*migrating, drifted, driftLoad);
    drift.addRow({"frequency (after recovery)", bench::fmt(rD.qps, 0),
                  bench::fmt(rD.serving.p99.raw() / 1e3, 1),
                  bench::fmt(rD.skew, 3),
                  std::to_string(mD.serving.migratedPages +
                                 rD.serving.migratedPages)});
    drift.print();
    std::printf("\n");

    // --- Table 3: the cluster twin --------------------------------
    // The same drift signal drives shard re-planning: per-table
    // weights shift, and stickiness trades residual imbalance against
    // tables that must be re-provisioned on another device.
    bench::TextTable reshard({"stickiness", "moved tables",
                              "moved weight%"});
    reshard.setCaption("RMC2 re-sharding under drifted table weights");
    const model::ModelConfig cfg2 = model::rmc2();
    cluster::ShardingOptions so;
    so.numDevices = 4;
    std::vector<workload::TraceGenerator::TableHistogram> before(
        cfg2.numTables);
    std::vector<workload::TraceGenerator::TableHistogram> after(
        cfg2.numTables);
    for (std::uint32_t t = 0; t < cfg2.numTables; ++t) {
        // Strictly increasing working sets (no ties, so the greedy
        // placement is pinned to the actual weights), rotated by a
        // quarter of the tables: the heavy quarter changes identity.
        const std::uint32_t s = (t + cfg2.numTables / 4) %
                                cfg2.numTables;
        before[t].uniqueHotIndices =
            static_cast<std::uint64_t>(t + 1) * (t + 1);
        before[t].totalLookups = before[t].uniqueHotIndices * 100;
        after[t].uniqueHotIndices =
            static_cast<std::uint64_t>(s + 1) * (s + 1);
        after[t].totalLookups = after[t].uniqueHotIndices * 100;
    }
    const cluster::ShardPlan previous =
        cluster::planTableSharding(cfg2, so, before);
    for (const double stickiness : {0.0, 0.05, 0.5}) {
        const cluster::ReshardPlanResult r =
            cluster::replanTableSharding(cfg2, so, previous, after,
                                         stickiness);
        reshard.addRow(
            {bench::fmt(stickiness, 2),
             std::to_string(r.movedTables),
             bench::fmt(r.movedWeightFraction * 100.0, 1)});
    }
    reshard.print();

    std::printf("\nExpected shape: frequency beats linear on QPS and "
                "p99 at every cache scale (largest with the small /16 "
                "cache and with no cache at all) with visibly lower "
                "die skew; under drift the stale plan loses its edge "
                "and background migration wins it back; higher "
                "stickiness re-shards fewer tables.\n");
}

void
BM_FrequencyPlacementServing(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    const workload::TraceConfig tc = flashCrowdTrace();
    auto dev = makeDevice(cfg, {}, true);
    workload::TraceGenerator heat(cfg, tc);
    dev->planPlacement(heat.hotRowHeats());
    workload::TraceGenerator gen(cfg, tc);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dev->infer(gen.nextBatch(4)).completionCycle);
    }
}
BENCHMARK(BM_FrequencyPlacementServing);

void
BM_MigrationPass(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    const workload::TraceConfig tc = flashCrowdTrace(0xd12f7ULL);
    auto dev = makeDevice(cfg, {}, true);
    workload::TraceGenerator gen(cfg, tc);
    for (auto _ : state) {
        dev->infer(gen.nextBatch(4));
        benchmark::DoNotOptimize(dev->migrateIfDrifted());
    }
}
BENCHMARK(BM_MigrationPass);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
