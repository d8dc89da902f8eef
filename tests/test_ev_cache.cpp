/**
 * @file
 * Tests for the device-side EV cache and intra-batch index
 * coalescing: LRU eviction mechanics, functional equivalence of the
 * reuse path (pooled outputs bit-identical with cache/coalescing on
 * vs. off), hit-ratio against the localityK trace generator, and the
 * cache-aware steady-state read-rate model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "engine/coalescing_table.h"
#include "engine/embedding_engine.h"
#include "engine/ev_cache.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/trace_gen.h"

namespace rmssd::engine {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 8;
    return cfg;
}

/** A one-set cache of @p ways lines (direct LRU observation). */
EvCache
oneSetCache(std::uint32_t ways, std::uint32_t lineBytes = 16)
{
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes =
        Bytes{static_cast<std::uint64_t>(ways) * lineBytes};
    cc.ways = ways;
    return EvCache(cc, Bytes{lineBytes});
}

TEST(EvCache, GeometryFromConfig)
{
    EvCacheConfig cc;
    cc.capacityBytes = Bytes{1024};
    cc.ways = 4;
    const EvCache cache(cc, Bytes{32}); // 32 lines -> 8 sets x 4 ways
    EXPECT_EQ(cache.numSets(), 8u);
    EXPECT_EQ(cache.ways(), 4u);
    EXPECT_EQ(cache.lineBytes(), Bytes{32});
}

TEST(EvCache, LruEvictsOldestLine)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));

    // Touch index 1 so index 2 becomes LRU, then overflow the set.
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, nullptr));
    cache.fill(TableId{}, EvIndex{3}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{3}));
    EXPECT_EQ(cache.evictions().value(), 1u);
}

TEST(EvCache, RefillRefreshesInsteadOfEvicting)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    cache.fill(TableId{}, EvIndex{1}, {}); // refresh, not a new line
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_EQ(cache.evictions().value(), 0u);

    cache.fill(TableId{}, EvIndex{3}, {}); // now 2 is LRU
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
}

TEST(EvCache, TablesDoNotAlias)
{
    EvCache cache = oneSetCache(4);
    cache.fill(TableId{1}, EvIndex{7}, {});
    EXPECT_TRUE(cache.contains(TableId{1}, EvIndex{7}));
    EXPECT_FALSE(cache.contains(TableId{2}, EvIndex{7}));
    EXPECT_FALSE(cache.lookup(TableId{2}, EvIndex{7}, nullptr));
}

TEST(EvCache, FunctionalLookupRequiresData)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {}); // timing-only line, no bytes
    std::span<const std::uint8_t> out;
    EXPECT_FALSE(cache.lookup(TableId{}, EvIndex{1}, &out)) << "dataless line must miss "
                                              "a functional probe";
    EXPECT_EQ(cache.dataBytes(), 0u) << "timing-only fills hold no bytes";
    std::vector<std::uint8_t> bytes(16);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i + 1);
    cache.fill(TableId{}, EvIndex{1}, bytes);
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, &out));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), bytes.begin(),
                           bytes.end()));
    // A timing-only refill drops the bytes again.
    cache.fill(TableId{}, EvIndex{1}, {});
    EXPECT_FALSE(cache.lookup(TableId{}, EvIndex{1}, &out));
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, nullptr));
}

TEST(EffectiveCyclesPerRead, ShrinksWithHitRatioAndFloors)
{
    const flash::Geometry g = flash::tableIIGeometry();
    const flash::NandTiming t = flash::tableIITiming();
    const double base =
        EmbeddingEngine::steadyStateCyclesPerRead(g, t, Bytes{128});
    EXPECT_DOUBLE_EQ(
        EmbeddingEngine::effectiveCyclesPerRead(g, t, Bytes{128}, 0.0), base);
    const double half =
        EmbeddingEngine::effectiveCyclesPerRead(g, t, Bytes{128}, 0.5);
    EXPECT_DOUBLE_EQ(half, base * 0.5);
    // A perfect cache is still bounded by the translator issue rate.
    EXPECT_DOUBLE_EQ(
        EmbeddingEngine::effectiveCyclesPerRead(g, t, Bytes{128}, 1.0),
        static_cast<double>(EvTranslator::kCyclesPerIndex.raw()));
}

/** Device options with the reuse path fully on (functional). */
RmSsdOptions
cachedOptions()
{
    RmSsdOptions opt;
    opt.functional = true;
    opt.evCache.enabled = true;
    opt.coalesceIndices = true;
    return opt;
}

TEST(EvCacheEquivalence, PooledOutputsBitIdenticalOnVsOff)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsd cached(cfg, cachedOptions());
    cached.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(plain.model().makeSample(100 + i));
    // Force heavy duplication: every sample hits the same few rows.
    for (auto &idx : batch[1].indices)
        idx = batch[0].indices[0];

    const EmbeddingResult a =
        plain.embeddingEngine().run(Cycle{}, std::span(batch), true);
    // Two passes over the cached device: the second runs hot.
    const EmbeddingResult b =
        cached.embeddingEngine().run(Cycle{}, std::span(batch), true);
    const EmbeddingResult c =
        cached.embeddingEngine().run(Cycle{}, std::span(batch), true);

    ASSERT_EQ(a.pooled.size(), b.pooled.size());
    for (std::size_t s = 0; s < a.pooled.size(); ++s) {
        ASSERT_EQ(a.pooled[s].size(), b.pooled[s].size());
        for (std::size_t d = 0; d < a.pooled[s].size(); ++d) {
            EXPECT_EQ(a.pooled[s][d], b.pooled[s][d])
                << "sample " << s << " dim " << d;
            EXPECT_EQ(a.pooled[s][d], c.pooled[s][d])
                << "warm sample " << s << " dim " << d;
        }
    }
    EXPECT_GT(cached.evCache()->hits().value(), 0u)
        << "second pass should hit";
    EXPECT_GT(cached.embeddingEngine().coalescedLookups().value(), 0u);
}

TEST(EvCacheEquivalence, EndToEndInferenceMatchesPlainDevice)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsd cached(cfg, cachedOptions());
    cached.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(plain.model().makeSample(7 + i));

    const auto outA = plain.infer(batch).outputs;
    const auto outB = cached.infer(batch).outputs;
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t i = 0; i < outA.size(); ++i)
        EXPECT_EQ(outA[i], outB[i]) << "sample " << i;
}

TEST(EvCacheTiming, WarmBatchFinishesEarlier)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.evCache.enabled = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(dev.model().makeSample(50 + i));

    const Cycle cold =
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    dev.flash().resetTiming();
    const Cycle warm =
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    EXPECT_LT(warm, cold);
    EXPECT_EQ(dev.evCache()->misses().value(),
              dev.evCache()->fills().value());
}

TEST(Coalescing, DuplicateIndicesReadFlashOnce)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.coalesceIndices = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    model::Sample s = dev.model().makeSample(9);
    // All lookups of table 0 reference one row.
    const auto row = s.indices[0][0];
    std::fill(s.indices[0].begin(), s.indices[0].end(), row);

    dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    const std::uint64_t lookups = cfg.lookupsPerSample();
    EXPECT_EQ(dev.embeddingEngine().lookups().value(), lookups);
    // At least the 7 duplicates of table 0 must coalesce; random draws
    // in other tables may add more.
    EXPECT_GE(dev.embeddingEngine().coalescedLookups().value(), 7u);
    EXPECT_EQ(dev.embeddingEngine().flashReads().value() +
                  dev.embeddingEngine().coalescedLookups().value(),
              lookups);
    EXPECT_EQ(dev.embeddingEngine().lookupBytes().value(),
              dev.embeddingEngine().flashReads().value() *
                  cfg.vectorBytes());
}

TEST(Coalescing, NeverSlowerThanPlainEngine)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsdOptions coalOpt;
    coalOpt.coalesceIndices = true;
    RmSsd coal(cfg, coalOpt);
    coal.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(plain.model().makeSample(i));
    for (auto &idx : batch[2].indices)
        idx = batch[3].indices[0];

    const Cycle tPlain =
        plain.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    const Cycle tCoal =
        coal.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    EXPECT_LE(tCoal, tPlain);
}

TEST(EvCacheHitRatio, TracksLocalityKTraceEstimate)
{
    // Hot-set-sized cache against the K = 0 trace (80 % hot): the
    // measured hit ratio converges toward workload::expectedHitRatio.
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(200000);
    cfg.lookupsPerTable = 40;
    cfg.numTables = 4;

    workload::TraceConfig tc = workload::localityK(0.0);
    tc.hotRowsPerTable = 2000;

    RmSsdOptions opt;
    opt.evCache.enabled = true;
    // Oversize 4x: the estimate assumes the hot set stays resident,
    // so leave headroom for cold-tail pollution and set conflicts.
    opt.evCache.capacityBytes = Bytes{4ull * tc.hotRowsPerTable *
                                      cfg.numTables *
                                      cfg.vectorBytes()};
    RmSsd dev(cfg, opt);
    dev.loadTables();

    workload::TraceGenerator gen(cfg, tc);
    // Warm the cache, then measure.
    for (int b = 0; b < 30; ++b) {
        const auto batch = gen.nextBatch(8);
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    }
    const std::uint64_t hits0 = dev.evCache()->hits().value();
    const std::uint64_t misses0 = dev.evCache()->misses().value();
    for (int b = 0; b < 30; ++b) {
        const auto batch = gen.nextBatch(8);
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    }
    const double measured =
        static_cast<double>(dev.evCache()->hits().value() - hits0) /
        static_cast<double>(dev.evCache()->hits().value() - hits0 +
                            dev.evCache()->misses().value() - misses0);

    const double expected = workload::expectedHitRatio(
        tc, opt.evCache.capacityBytes.raw() / cfg.vectorBytes() /
                cfg.numTables);
    EXPECT_DOUBLE_EQ(expected, 0.80);
    EXPECT_NEAR(measured, expected, 0.12);
    EXPECT_GT(measured, 0.5);
}

TEST(ExpectedHitRatio, PartialCoverageFollowsPowerLaw)
{
    workload::TraceConfig tc;
    tc.hotAccessFraction = 0.8;
    tc.hotRowsPerTable = 10000;
    tc.hotSkew = 2.0;
    // Covering a quarter of the hot set captures sqrt(1/4) = half of
    // the hot draws.
    EXPECT_NEAR(workload::expectedHitRatio(tc, 2500), 0.4, 1e-9);
    EXPECT_DOUBLE_EQ(workload::expectedHitRatio(tc, 0), 0.0);
    EXPECT_DOUBLE_EQ(workload::expectedHitRatio(tc, 20000), 0.8);
}

TEST(FrequencySketch, ConservativeCountAndSaturation)
{
    FrequencySketch sketch(256, 1000);
    EXPECT_EQ(sketch.estimate(42), 0u);
    for (int i = 0; i < 5; ++i)
        sketch.record(42);
    EXPECT_EQ(sketch.estimate(42), 5u);
    // 4-bit counters saturate at 15.
    for (int i = 0; i < 100; ++i)
        sketch.record(42);
    EXPECT_EQ(sketch.estimate(42), FrequencySketch::kMaxCount);
    // An untouched key stays (close to) zero; with 256 counters and
    // one resident key, all four rows colliding is impossible.
    EXPECT_LT(sketch.estimate(43), FrequencySketch::kMaxCount);
}

TEST(FrequencySketch, PeriodicHalvingDecays)
{
    // sampleSize 8: the 8th record halves every counter.
    FrequencySketch sketch(256, 8);
    for (int i = 0; i < 7; ++i)
        sketch.record(7);
    EXPECT_EQ(sketch.estimate(7), 7u);
    sketch.record(7); // 8th addition triggers the halving
    EXPECT_EQ(sketch.estimate(7), 4u); // (7+1)/2
    // The halving halves the addition count too, to 4: the next one
    // comes 4 records later, not 8.
    for (int i = 0; i < 3; ++i)
        sketch.record(7);
    EXPECT_EQ(sketch.estimate(7), 7u);
    sketch.record(7);
    EXPECT_EQ(sketch.estimate(7), 4u);
}

/** One-set TinyLFU cache of @p ways lines. */
EvCache
oneSetLfuCache(std::uint32_t ways)
{
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{static_cast<std::uint64_t>(ways) * 16};
    cc.ways = ways;
    cc.admission = EvCacheAdmission::TinyLfu;
    return EvCache(cc, Bytes{16});
}

TEST(TinyLfuAdmission, OneHitWonderRejectedHotKeyAdmitted)
{
    EvCache cache = oneSetLfuCache(2);

    // Establish two resident keys and give them some popularity.
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    for (int i = 0; i < 3; ++i) {
        cache.lookup(TableId{}, EvIndex{1}, nullptr);
        cache.lookup(TableId{}, EvIndex{2}, nullptr);
    }

    // A one-hit wonder misses once and its fill must bounce off the
    // admission filter: estimated frequency 1 vs. the victim's 3.
    EXPECT_FALSE(cache.lookup(TableId{}, EvIndex{9}, nullptr));
    cache.fill(TableId{}, EvIndex{9}, {});
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{9}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_EQ(cache.admissionRejects().value(), 1u);
    EXPECT_EQ(cache.evictions().value(), 0u);

    // A genuinely hot newcomer out-polls the victim and gets in.
    for (int i = 0; i < 5; ++i)
        cache.lookup(TableId{}, EvIndex{5}, nullptr);
    cache.fill(TableId{}, EvIndex{5}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{5}));
    EXPECT_EQ(cache.evictions().value(), 1u);
}

TEST(TinyLfuAdmission, AlwaysAdmitKeepsPr1Behaviour)
{
    // The default policy has no sketch and admits every fill — the
    // exact PR-1 LRU cache.
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    cache.fill(TableId{}, EvIndex{9}, {}); // one-hit wonder admitted
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{9}));
    EXPECT_EQ(cache.admissionRejects().value(), 0u);
}

TEST(TinyLfuAdmission, PooledOutputsBitIdentical)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();

    RmSsdOptions opt = cachedOptions();
    opt.evCache.admission = EvCacheAdmission::TinyLfu;
    RmSsd cached(cfg, opt);
    cached.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(plain.model().makeSample(300 + i));

    const EmbeddingResult a =
        plain.embeddingEngine().run(Cycle{}, std::span(batch), true);
    const EmbeddingResult b =
        cached.embeddingEngine().run(Cycle{}, std::span(batch), true);
    const EmbeddingResult c =
        cached.embeddingEngine().run(Cycle{}, std::span(batch), true);

    ASSERT_EQ(a.pooled.size(), b.pooled.size());
    for (std::size_t s = 0; s < a.pooled.size(); ++s) {
        ASSERT_EQ(a.pooled[s].size(), b.pooled[s].size());
        for (std::size_t d = 0; d < a.pooled[s].size(); ++d) {
            EXPECT_EQ(a.pooled[s][d], b.pooled[s][d])
                << "sample " << s << " dim " << d;
            EXPECT_EQ(a.pooled[s][d], c.pooled[s][d])
                << "warm sample " << s << " dim " << d;
        }
    }
    EXPECT_GT(cached.evCache()->hits().value(), 0u);
}

TEST(PartitionPlanner, LargestRemainderWithFloor)
{
    const std::vector<double> shares{3.0, 1.0};
    const auto parts = planTablePartitions(10, shares);
    ASSERT_EQ(parts.size(), 2u);
    // Contiguous cover of all 10 sets, proportional 3:1 on the spare
    // sets after the one-set floors.
    EXPECT_EQ(parts[0].firstSet, 0u);
    EXPECT_EQ(parts[0].numSets, 7u);
    EXPECT_EQ(parts[1].firstSet, 7u);
    EXPECT_EQ(parts[1].numSets, 3u);

    // A vanishing share still gets its floor set.
    const std::vector<double> skewed{1000.0, 1e-6};
    const auto floors = planTablePartitions(8, skewed);
    EXPECT_EQ(floors[0].numSets, 7u);
    EXPECT_EQ(floors[1].numSets, 1u);
}

TEST(Partitioning, TableTrafficCannotCrossPartitions)
{
    // 8 sets x 1 way, split evenly between two tables. Table 0 may
    // thrash its own half all it wants; table 1's lines survive.
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{8 * 16};
    cc.ways = 1;
    cc.tableShares = {1.0, 1.0};
    EvCache cache(cc, Bytes{16});
    ASSERT_EQ(cache.partitions().size(), 2u);
    EXPECT_EQ(cache.partitions()[0].numSets, 4u);
    EXPECT_EQ(cache.partitions()[1].firstSet, 4u);

    for (std::uint64_t i = 0; i < 4; ++i)
        cache.fill(TableId{1}, EvIndex{i}, {});
    std::vector<std::uint64_t> resident;
    for (std::uint64_t i = 0; i < 4; ++i)
        if (cache.contains(TableId{1}, EvIndex{i}))
            resident.push_back(i);
    ASSERT_FALSE(resident.empty());

    // Flood table 0 with far more distinct keys than the whole cache.
    for (std::uint64_t i = 0; i < 1000; ++i)
        cache.fill(TableId{0}, EvIndex{i}, {});

    for (const std::uint64_t i : resident)
        EXPECT_TRUE(cache.contains(TableId{1}, EvIndex{i}))
            << "table 0 traffic evicted table 1 line " << i;
}

TEST(TableHistograms, ProfilesEveryTableWithoutPerturbingStream)
{
    model::ModelConfig cfg = model::rmc3();
    cfg.withRowsPerTable(100000);
    workload::TraceConfig tc = workload::localityK(0.0);

    workload::TraceGenerator gen(cfg, tc);
    workload::TraceGenerator ref(cfg, tc);
    const auto hist = gen.tableHistograms(5000);
    ASSERT_EQ(hist.size(), cfg.numTables);
    for (const auto &h : hist) {
        EXPECT_EQ(h.totalLookups, 5000u);
        EXPECT_GT(h.uniqueHotIndices, 0u);
        EXPECT_GE(h.hotLookups, h.uniqueHotIndices);
        // K = 0: 80 % of draws land in the hot set.
        EXPECT_NEAR(static_cast<double>(h.hotLookups) / 5000.0, 0.8,
                    0.05);
    }

    // Profiling must not advance the main sample stream.
    const model::Sample a = gen.next();
    const model::Sample b = ref.next();
    EXPECT_EQ(a.indices, b.indices);

    const auto shares = workload::planTableShares(hist);
    ASSERT_EQ(shares.size(), hist.size());
    for (std::size_t t = 0; t < shares.size(); ++t)
        EXPECT_DOUBLE_EQ(
            shares[t],
            static_cast<double>(hist[t].uniqueHotIndices));
}

TEST(Replanning, DriftTriggersKernelResearch)
{
    // Plan against a wildly optimistic hit ratio, then feed the
    // device a cold uniform trace: the measured window drifts far
    // below the plan and replanIfDrifted must re-run the search with
    // a larger effective read cost.
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(1u << 20);

    RmSsdOptions opt;
    opt.evCache.enabled = true;
    opt.evCache.expectedHitRatio = 0.9;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    EXPECT_DOUBLE_EQ(dev.plannedHitRatio(), 0.9);
    // No probes yet: an empty window never triggers a re-plan.
    EXPECT_FALSE(dev.replanIfDrifted(0.05));

    workload::TraceConfig tc;
    tc.hotAccessFraction = 0.0; // pure uniform: hit ratio ~ 0
    workload::TraceGenerator gen(cfg, tc);
    for (int b = 0; b < 4; ++b) {
        const auto batch = gen.nextBatch(4);
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    }

    const double rcpvBefore = dev.searchResult().readCyclesPerVector;
    EXPECT_TRUE(dev.replanIfDrifted(0.05));
    EXPECT_EQ(dev.replans().value(), 1u);
    EXPECT_LT(dev.plannedHitRatio(), 0.1);
    EXPECT_GT(dev.searchResult().readCyclesPerVector, rcpvBefore);

    // The fresh window is empty again; no immediate second re-plan.
    EXPECT_FALSE(dev.replanIfDrifted(0.05));
}

TEST(Replanning, WithinThresholdLeavesPlanAlone)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(1u << 20);
    RmSsdOptions opt;
    opt.evCache.enabled = true;
    opt.evCache.expectedHitRatio = 0.5;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    workload::TraceConfig tc;
    tc.hotAccessFraction = 0.0;
    workload::TraceGenerator gen(cfg, tc);
    const auto batch = gen.nextBatch(4);
    dev.embeddingEngine().run(Cycle{}, std::span(batch), false);

    // Drift is ~0.5 but the threshold is wider: keep the plan.
    EXPECT_FALSE(dev.replanIfDrifted(1.0));
    EXPECT_EQ(dev.replans().value(), 0u);
    EXPECT_DOUBLE_EQ(dev.plannedHitRatio(), 0.5);
}

TEST(RmSsdCache, SearchAdaptsToExpectedHitRatio)
{
    // With the cache on, the kernel search sees a smaller T_emb and
    // must still produce a feasible (or at worst MLP-bound) plan; the
    // embedding read estimate should shrink accordingly.
    const model::ModelConfig cfg = model::rmc1();
    RmSsdOptions plain;
    RmSsd dev(cfg, plain);

    RmSsdOptions cachedOpt;
    cachedOpt.evCache.enabled = true;
    cachedOpt.evCache.expectedHitRatio = 0.8;
    RmSsd cached(cfg, cachedOpt);

    const double perReadPlain =
        static_cast<double>(dev.searchResult().embReadCycles.raw()) /
        dev.searchResult().plan.microBatch;
    const double perReadCached =
        static_cast<double>(cached.searchResult().embReadCycles.raw()) /
        cached.searchResult().plan.microBatch;
    EXPECT_LT(perReadCached, perReadPlain);
}

TEST(EvKey, PacksTableAboveIndex)
{
    EXPECT_EQ(evKey(TableId{3}, EvIndex{5}), (3ULL << 48) | 5);
    // The largest table id and index still fit without aliasing.
    EXPECT_EQ(evKey(TableId{0xffff}, EvIndex{(1ULL << 48) - 1}), ~0ULL);
}

TEST(EvKeyDeathTest, RejectsOutOfRangeTableAndIndex)
{
    EXPECT_DEATH((void)evKey(TableId{1U << 16}, EvIndex{0}),
                 "table id exceeds key space");
    EXPECT_DEATH((void)evKey(TableId{0}, EvIndex{1ULL << 48}),
                 "embedding index exceeds key space");
}

/**
 * Reference model of the cache as it was first written: one vector of
 * lines per set, each line owning a byte vector, linear scans for
 * lookup and LRU. The flat cache must match it op for op.
 */
class ReferenceCache
{
  public:
    ReferenceCache(const EvCacheConfig &config, const EvCache &shape)
        : sets_(shape.numSets(), std::vector<Line>(shape.ways())),
          partitions_(shape.partitions())
    {
        if (config.admission == EvCacheAdmission::TinyLfu) {
            const std::uint64_t lines =
                config.capacityBytes.raw() / shape.lineBytes().raw();
            sketch_ = std::make_unique<FrequencySketch>(
                lines * EvCache::kSketchCountersPerLine,
                lines * EvCache::kSketchSamplePerLine);
        }
    }

    bool lookup(TableId table, EvIndex index,
                std::vector<std::uint8_t> *out)
    {
        const std::uint64_t key = evKey(table, index);
        if (sketch_)
            sketch_->record(key);
        Line *line = findIn(set(table, key), key);
        if (!line || (out && line->data.empty())) {
            ++misses;
            return false;
        }
        line->lastUse = ++tick_;
        ++hits;
        if (out)
            *out = line->data;
        return true;
    }

    void fill(TableId table, EvIndex index,
              const std::vector<std::uint8_t> &data)
    {
        const std::uint64_t key = evKey(table, index);
        std::vector<Line> &s = set(table, key);
        Line *victim = findIn(s, key);
        for (Line &line : s)
            if (!victim && !line.valid)
                victim = &line;
        if (!victim) {
            victim = &*std::min_element(
                s.begin(), s.end(), [](const Line &a, const Line &b) {
                    return a.lastUse < b.lastUse;
                });
            if (sketch_ &&
                sketch_->estimate(key) <= sketch_->estimate(victim->key)) {
                ++rejects;
                return;
            }
            ++evictions;
        }
        *victim = Line{true, key, ++tick_, data};
        ++fills;
    }

    bool contains(TableId table, EvIndex index)
    {
        const std::uint64_t key = evKey(table, index);
        return findIn(set(table, key), key) != nullptr;
    }

    std::uint64_t hits = 0, misses = 0, fills = 0, evictions = 0,
                  rejects = 0;

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        std::vector<std::uint8_t> data;
    };

    std::vector<Line> &set(TableId table, std::uint64_t key)
    {
        const std::uint64_t h = splitmix64(key);
        if (partitions_.empty())
            return sets_[h % sets_.size()];
        const EvCachePartition &p = partitions_[table.raw()];
        return sets_[p.firstSet + h % p.numSets];
    }

    static Line *findIn(std::vector<Line> &lines, std::uint64_t key)
    {
        for (Line &line : lines)
            if (line.valid && line.key == key)
                return &line;
        return nullptr;
    }

    std::uint64_t tick_ = 0;
    std::vector<std::vector<Line>> sets_;
    std::vector<EvCachePartition> partitions_;
    std::unique_ptr<FrequencySketch> sketch_;
};

/** Cache configurations covering every admission and layout knob. */
std::vector<std::pair<const char *, EvCacheConfig>>
layoutConfigs()
{
    EvCacheConfig plain; // 64 lines: 8 sets x 8 ways
    plain.capacityBytes = Bytes{64 * 16};

    EvCacheConfig odd = plain; // 6 sets x 4 ways: not a power of two
    odd.capacityBytes = Bytes{24 * 16};
    odd.ways = 4;

    EvCacheConfig lfu = plain;
    lfu.admission = EvCacheAdmission::TinyLfu;

    EvCacheConfig parts = lfu;
    parts.tableShares = {3.0, 1.0, 2.0};
    return {{"always-admit", plain},
            {"odd-sets", odd},
            {"tinylfu", lfu},
            {"partitioned", parts}};
}

TEST(EvCacheDifferential, FlatLayoutMatchesReferenceModel)
{
    constexpr int kOps = 100000;
    constexpr std::uint32_t kLineBytes = 16;
    for (const auto &[name, cc] : layoutConfigs()) {
        SCOPED_TRACE(name);
        EvCache cache(cc, Bytes{kLineBytes});
        ReferenceCache ref(cc, cache);
        Rng rng(17);
        std::set<std::pair<std::uint32_t, std::uint64_t>> touched;
        std::uint64_t serial = 0;
        for (int op = 0; op < kOps; ++op) {
            // Skewed keys over three tables: enough reuse for hits,
            // enough spread for conflicts, evictions and rejections.
            const auto t = static_cast<std::uint32_t>(rng.nextBounded(3));
            const std::uint64_t i = rng.nextBounded(8) == 0
                                        ? rng.nextBounded(4096)
                                        : rng.nextBounded(96);
            const TableId table{t};
            const EvIndex index{i};
            touched.emplace(t, i);
            const std::uint64_t action = rng.nextBounded(1000);
            if (action < 300) {
                ASSERT_EQ(cache.lookup(table, index, nullptr),
                          ref.lookup(table, index, nullptr))
                    << "timing probe, op " << op;
            } else if (action < 600) {
                std::span<const std::uint8_t> got;
                std::vector<std::uint8_t> want;
                const bool hit = ref.lookup(table, index, &want);
                ASSERT_EQ(cache.lookup(table, index, &got), hit)
                    << "functional probe, op " << op;
                if (hit) {
                    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                           want.begin(), want.end()))
                        << "bytes of a functional hit, op " << op;
                }
            } else if (action < 800) {
                cache.fill(table, index, {});
                ref.fill(table, index, {});
            } else {
                // Each fill carries distinct bytes, so a line serving a
                // stale or foreign payload cannot go unnoticed.
                std::vector<std::uint8_t> bytes(kLineBytes);
                ++serial;
                for (std::uint32_t b = 0; b < kLineBytes; ++b)
                    bytes[b] = static_cast<std::uint8_t>(
                        splitmix64(serial * kLineBytes + b));
                cache.fill(table, index, bytes);
                ref.fill(table, index, bytes);
            }
        }
        EXPECT_EQ(cache.hits().value(), ref.hits);
        EXPECT_EQ(cache.misses().value(), ref.misses);
        EXPECT_EQ(cache.fills().value(), ref.fills);
        EXPECT_EQ(cache.evictions().value(), ref.evictions);
        EXPECT_EQ(cache.admissionRejects().value(), ref.rejects);
        for (const auto &[t, i] : touched) {
            ASSERT_EQ(cache.contains(TableId{t}, EvIndex{i}),
                      ref.contains(TableId{t}, EvIndex{i}))
                << "table " << t << " index " << i;
        }
        // Every path the model has must have been exercised.
        EXPECT_GT(ref.hits, 0u);
        EXPECT_GT(ref.evictions, 0u);
        if (cc.admission == EvCacheAdmission::TinyLfu) {
            EXPECT_GT(ref.rejects, 0u);
        }
    }
}

TEST(EvCacheLayout, LineDataOnlyForFunctionalRuns)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions timingOpt;
    timingOpt.evCache.enabled = true;
    RmSsd timing(cfg, timingOpt);
    timing.loadTables();
    RmSsd functional(cfg, cachedOptions());
    functional.loadTables();

    const model::Sample s = timing.model().makeSample(4);
    timing.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    functional.embeddingEngine().run(Cycle{}, std::span(&s, 1), true);
    EXPECT_GT(timing.evCache()->fills().value(), 0u);
    EXPECT_EQ(timing.evCache()->dataBytes(), 0u);

    const EvCache &cache = *functional.evCache();
    EXPECT_EQ(cache.dataBytes(),
              static_cast<std::size_t>(cache.numSets()) * cache.ways() *
                  cache.lineBytes().raw());
}

TEST(CoalescingTable, FindsOnlyThisBatchesKeys)
{
    CoalescingTable table;
    table.reset(4);
    EXPECT_EQ(table.find(evKey(TableId{0}, EvIndex{1})), nullptr);

    const std::vector<std::uint8_t> bytes{9, 8, 7, 6};
    table.insert(evKey(TableId{0}, EvIndex{1}), Cycle{40}, bytes);
    table.insert(evKey(TableId{1}, EvIndex{1}), Cycle{50}, {});
    EXPECT_EQ(table.size(), 2u);

    const CoalescingTable::Entry *a =
        table.find(evKey(TableId{0}, EvIndex{1}));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->done, Cycle{40});
    const auto data = table.data(*a);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), bytes.begin(),
                           bytes.end()));
    const CoalescingTable::Entry *b =
        table.find(evKey(TableId{1}, EvIndex{1}));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->done, Cycle{50});
    EXPECT_TRUE(table.data(*b).empty());
    EXPECT_EQ(table.find(evKey(TableId{2}, EvIndex{1})), nullptr);

    // A new batch forgets everything without shrinking the slots.
    const std::size_t slots = table.capacity();
    table.reset(2);
    EXPECT_EQ(table.capacity(), slots);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(evKey(TableId{0}, EvIndex{1})), nullptr);
}

TEST(CoalescingTable, GrowsToTheLargestBatchAtHalfLoad)
{
    CoalescingTable table;
    table.reset(4);
    EXPECT_EQ(table.capacity(), 16u);
    table.insert(evKey(TableId{0}, EvIndex{7}), Cycle{1}, {});

    // A batch bigger than the slots: the table regrows, and nothing
    // of the previous batch survives the regrowth.
    table.reset(1000);
    EXPECT_EQ(table.capacity(), 2048u);
    EXPECT_EQ(table.find(evKey(TableId{0}, EvIndex{7})), nullptr);
    for (std::uint64_t i = 0; i < 1000; ++i)
        table.insert(evKey(TableId{static_cast<std::uint32_t>(i % 3)},
                           EvIndex{i}),
                     Cycle{i}, {});
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const CoalescingTable::Entry *e = table.find(
            evKey(TableId{static_cast<std::uint32_t>(i % 3)}, EvIndex{i}));
        ASSERT_NE(e, nullptr) << i;
        EXPECT_EQ(e->done, Cycle{i});
    }
    table.reset(10);
    EXPECT_EQ(table.capacity(), 2048u) << "slots are kept for reuse";
}

/** Duplicate lookups of @p batch: its lookups minus its unique keys. */
std::uint64_t
duplicateLookups(std::span<const model::Sample> batch)
{
    std::set<std::pair<std::size_t, std::uint64_t>> unique;
    std::uint64_t lookups = 0;
    for (const model::Sample &s : batch) {
        for (std::size_t t = 0; t < s.indices.size(); ++t) {
            for (const std::uint64_t idx : s.indices[t])
                unique.emplace(t, idx);
            lookups += s.indices[t].size();
        }
    }
    return lookups - unique.size();
}

/**
 * Run @p batches through a coalescing device and a plain one: every
 * batch must coalesce exactly its own duplicates and pool the same
 * bits as the device that reads every lookup.
 */
void
expectCoalescingExact(const model::ModelConfig &cfg,
                      const std::vector<std::vector<model::Sample>> &batches)
{
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsdOptions coalOpt = plainOpt;
    coalOpt.coalesceIndices = true;
    RmSsd coal(cfg, coalOpt);
    coal.loadTables();

    std::uint64_t expected = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::span<const model::Sample> batch(batches[b]);
        expected += duplicateLookups(batch);
        const EmbeddingResult want =
            plain.embeddingEngine().run(Cycle{}, batch, true);
        const EmbeddingResult got =
            coal.embeddingEngine().run(Cycle{}, batch, true);
        ASSERT_EQ(coal.embeddingEngine().coalescedLookups().value(),
                  expected)
            << "batch " << b;
        ASSERT_EQ(got.pooled, want.pooled) << "batch " << b;
    }
}

TEST(Coalescing, BatchLargerThanTableCapacityGrowsIt)
{
    // A one-sample batch sizes the engine's table; the 64-sample batch
    // after it has far more lookups than those slots hold.
    model::ModelConfig cfg = tinyConfig();
    cfg.withRowsPerTable(64);
    const model::DlrmModel model(cfg);
    std::vector<std::vector<model::Sample>> batches(3);
    batches[0].push_back(model.makeSample(1));
    for (std::uint32_t i = 0; i < 64; ++i)
        batches[1].push_back(model.makeSample(100 + i));
    batches[2].push_back(model.makeSample(2));
    expectCoalescingExact(cfg, batches);
}

TEST(Coalescing, ReusedTableNeverServesAnEarlierBatch)
{
    // Thousands of consecutive batches drawing from the same small
    // tables: nearly every key recurs across batches, so any slot left
    // over from an earlier batch would be found and either inflate the
    // coalesced count or feed stale bytes into the pooled output.
    model::ModelConfig cfg = tinyConfig();
    cfg.withRowsPerTable(64);
    cfg.lookupsPerTable = 2;
    const model::DlrmModel model(cfg);
    std::vector<std::vector<model::Sample>> batches(3000);
    for (std::uint32_t b = 0; b < batches.size(); ++b) {
        for (std::uint32_t i = 0; i <= b % 4; ++i)
            batches[b].push_back(model.makeSample(10 * b + i));
    }
    expectCoalescingExact(cfg, batches);
}

} // namespace
} // namespace rmssd::engine
