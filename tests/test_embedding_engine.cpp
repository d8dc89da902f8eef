/**
 * @file
 * Tests for the Embedding Lookup Engine: functional pooling equality
 * against the reference SLS, channel striping, and timing behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>

#include "engine/embedding_engine.h"
#include "engine/ev_sum.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "model/tensor.h"
#include "sim/rng.h"

namespace rmssd::engine {
namespace {

/** Small functional device used by most tests here. */
RmSsdOptions
functionalOptions()
{
    RmSsdOptions opt;
    opt.functional = true;
    return opt;
}

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 8;
    return cfg;
}

/** Max absolute element-wise difference of two equal-length vectors. */
float
maxAbsDiff(const model::Vector &a, const model::Vector &b)
{
    EXPECT_EQ(a.size(), b.size());
    float m = 0.0f;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

TEST(EvSum, AccumulateBytesAddsFloats)
{
    std::vector<float> acc{1.0f, 2.0f};
    const float vals[2] = {0.5f, -1.0f};
    std::vector<std::uint8_t> raw(sizeof(vals));
    std::memcpy(raw.data(), vals, sizeof(vals));
    EvSum::accumulateBytes(raw, acc);
    EXPECT_FLOAT_EQ(acc[0], 1.5f);
    EXPECT_FLOAT_EQ(acc[1], 1.0f);
}

TEST(EmbeddingEngine, PooledResultMatchesReference)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    const model::Sample s = dev.model().makeSample(3);
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), true);
    ASSERT_EQ(res.pooled.size(), 1u);

    const model::Vector ref =
        dev.model().embedding().pooledReference(s.indices);
    EXPECT_LT(maxAbsDiff(res.pooled[0], ref), 1e-4f);
}

TEST(EmbeddingEngine, PoolingIsOrderInvariant)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    model::Sample s = dev.model().makeSample(5);
    const EmbeddingResult a =
        dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), true);
    for (auto &idx : s.indices)
        std::reverse(idx.begin(), idx.end());
    const EmbeddingResult b =
        dev.embeddingEngine().run(a.doneCycle, std::span(&s, 1), true);
    EXPECT_LT(maxAbsDiff(a.pooled[0], b.pooled[0]), 1e-4f);
}

TEST(EmbeddingEngine, TimingCoversAtLeastOneVectorRead)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    const model::Sample s = dev.model().makeSample(1);
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    EXPECT_GE(res.elapsed(),
              dev.flash().timing().vectorReadTotalCycles(
                  Bytes{cfg.vectorBytes()}));
    EXPECT_GT(res.issueEndCycle, Cycle{});
    EXPECT_LE(res.issueEndCycle, res.doneCycle);
}

TEST(EmbeddingEngine, LookupsStripeOverChannels)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    const model::Sample s = dev.model().makeSample(2);
    dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    // 8 tables x 8 lookups = 64 reads over 4 channels; with random
    // rows every channel must see traffic.
    for (std::uint32_t c = 0; c < 4; ++c) {
        EXPECT_GT(dev.flash().fmc(c).vectorReads().value(), 0u)
            << "channel " << c;
    }
    EXPECT_EQ(dev.embeddingEngine().lookups().value(), 64u);
    EXPECT_EQ(dev.embeddingEngine().lookupBytes().value(),
              64u * cfg.vectorBytes());
}

TEST(EmbeddingEngine, BatchTimeScalesRoughlyLinearly)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    std::vector<model::Sample> one{dev.model().makeSample(1)};
    std::vector<model::Sample> four;
    for (int i = 0; i < 4; ++i)
        four.push_back(dev.model().makeSample(10 + i));

    dev.flash().resetTiming();
    const Cycle t1 = dev.embeddingEngine()
                         .run(Cycle{}, std::span(one), false)
                         .elapsed();
    dev.flash().resetTiming();
    const Cycle t4 = dev.embeddingEngine()
                         .run(Cycle{}, std::span(four), false)
                         .elapsed();
    EXPECT_GT(t4, 2 * t1);
    EXPECT_LT(t4, 8 * t1);
}

class SteadyStateRate : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SteadyStateRate, AnalyticFormulaTracksSimulation)
{
    // bEV check: a long uniform stream approaches the analytic
    // steady-state cycles-per-read within 25%.
    const std::uint32_t evBytes = GetParam();
    model::ModelConfig cfg = model::rmc1();
    cfg.embDim = evBytes / 4;
    cfg.withRowsPerTable(4096);
    cfg.lookupsPerTable = 64;
    cfg.numTables = 4;

    RmSsdOptions opt; // timing only
    RmSsd dev(cfg, opt);
    dev.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 8; ++i)
        batch.push_back(dev.model().makeSample(i));
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    const double simPerRead =
        static_cast<double>(res.elapsed().raw()) /
        static_cast<double>(dev.embeddingEngine().lookups().value());
    const double analytic = EmbeddingEngine::steadyStateCyclesPerRead(
        dev.flash().geometry(), dev.flash().timing(), Bytes{evBytes});
    EXPECT_NEAR(simPerRead, analytic, analytic * 0.25);
}

INSTANTIATE_TEST_SUITE_P(SweepEvSizes, SteadyStateRate,
                         ::testing::Values(128u, 256u, 512u));

/** Float bit patterns, so vectors compare bit for bit. */
std::vector<std::uint32_t>
bits(std::span<const float> v)
{
    std::vector<std::uint32_t> out;
    for (const float x : v)
        out.push_back(std::bit_cast<std::uint32_t>(x));
    return out;
}

/** Functional device with an EV cache and coalescing. */
std::unique_ptr<RmSsd>
cachedCoalescingDevice(const model::ModelConfig &cfg,
                       std::uint64_t cacheLines, std::uint32_t ways)
{
    RmSsdOptions opt = functionalOptions();
    opt.evCache.enabled = true;
    opt.evCache.ways = ways;
    opt.evCache.capacityBytes = Bytes{cacheLines * cfg.vectorBytes()};
    opt.coalesceIndices = true;
    auto dev = std::make_unique<RmSsd>(cfg, opt);
    dev->loadTables();
    return dev;
}

/** Physical page holding row @p row of table @p t. */
PageId
pageOf(RmSsd &dev, std::uint32_t t, std::uint64_t row)
{
    const EvReadRequest req = dev.embeddingEngine().translator().translate(
        TableId{t}, EvIndex{row});
    return dev.ftl().mapping().translate(req.lpn);
}

/**
 * Rebuild @p dev's backing store without @p unwritten. Every other
 * page that holds table rows keeps its bytes; a page of @p unwritten
 * is never written, so a lookup into it reads the store's filler.
 */
void
dropPages(RmSsd &dev, const std::set<PageId> &unwritten)
{
    flash::BackingStore &store = dev.flash().store();
    flash::BackingStore rebuilt(store.pageSizeBytes());
    std::vector<std::uint8_t> page(store.pageSizeBytes().raw());
    std::set<PageId> copied;
    const auto &tables = dev.model().embedding().tables();
    for (std::uint32_t t = 0; t < tables.size(); ++t) {
        for (std::uint64_t row = 0; row < tables[t].numRows; ++row) {
            const PageId ppn = pageOf(dev, t, row);
            if (unwritten.contains(ppn) || !copied.insert(ppn).second)
                continue;
            store.read(ppn, Bytes{}, page);
            rebuilt.writePage(ppn, page);
        }
    }
    ASSERT_EQ(rebuilt.materializedPages() + unwritten.size(),
              store.materializedPages());
    store = std::move(rebuilt);
}

/**
 * Differential check of one engine run. Each table slice of each
 * sample must be bit-equal to a host fold, in lookup order, of copies
 * of the stored bytes (BackingStore::read), so a lookup into an
 * unwritten page contributes the filler the device reads. A slice
 * that touches no unwritten page must also be bit-equal to the reference
 * SLS of EmbeddingLayer::pooledReference.
 */
void
expectRunBitExact(RmSsd &dev, std::span<const model::Sample> samples,
                  const std::set<PageId> &unwritten)
{
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, samples, true);
    ASSERT_EQ(res.pooled.size(), samples.size());
    const auto &tables = dev.model().embedding().tables();
    for (std::size_t s = 0; s < samples.size(); ++s) {
        const model::Vector reference =
            dev.model().embedding().pooledReference(samples[s].indices);
        ASSERT_EQ(res.pooled[s].size(), reference.size());
        std::size_t offset = 0;
        for (std::uint32_t t = 0; t < tables.size(); ++t) {
            const std::uint32_t dim = tables[t].dim;
            model::Vector folded(dim, 0.0f);
            bool touchesUnwritten = false;
            for (const std::uint64_t row : samples[s].indices[t]) {
                const EvReadRequest req =
                    dev.embeddingEngine().translator().translate(
                        TableId{t}, EvIndex{row});
                const PageId ppn = dev.ftl().mapping().translate(req.lpn);
                touchesUnwritten |= unwritten.contains(ppn);
                std::vector<std::uint8_t> bytes(req.bytes.raw());
                dev.flash().store().read(ppn, req.byteInPage, bytes);
                EvSum::accumulateBytes(bytes, folded);
            }
            const std::span<const float> got =
                std::span(res.pooled[s]).subspan(offset, dim);
            EXPECT_EQ(bits(got), bits(folded))
                << "sample " << s << " table " << t;
            if (!touchesUnwritten) {
                EXPECT_EQ(bits(got), bits(std::span(reference)
                                              .subspan(offset, dim)))
                    << "sample " << s << " table " << t;
            }
            offset += dim;
        }
    }
}

/** A sample of tinyConfig() whose table @p t looks up @p rows only. */
model::Sample
sliceSample(const RmSsd &dev, std::uint32_t t,
            std::vector<std::uint64_t> rows)
{
    model::Sample s = dev.model().makeSample(0);
    for (auto &slice : s.indices)
        slice.clear();
    s.indices[t] = std::move(rows);
    return s;
}

TEST(EmbeddingEngineDifferential, CacheHitThenEvictionInOneSliceIsBitExact)
{
    // One set of 32 ways: the order of fills and hits below decides
    // every eviction. Element values are multiples of 2^-23 in
    // [-1, 1), so a fold only rounds once a partial sum passes 2 in
    // magnitude; the slice is long enough that a changed add order
    // shows in the bits.
    const model::ModelConfig cfg = tinyConfig();
    const auto dev = cachedCoalescingDevice(cfg, 32, 32);
    // Rows 288..319 share a page that is never written.
    const std::set<PageId> unwritten{pageOf(*dev, 0, 300)};
    dropPages(*dev, unwritten);

    // Fill the set with rows 0..31 (LRU to MRU).
    std::vector<std::uint64_t> warmRows(32);
    std::iota(warmRows.begin(), warmRows.end(), 0);
    const model::Sample warm = sliceSample(*dev, 0, warmRows);
    expectRunBitExact(*dev, std::span(&warm, 1), unwritten);

    // Rows 100..129 miss and evict 0..29, so 30 flash reads are
    // pending when row 31 hits. Rows 200..231 then evict 30, 100..129
    // and, with 231's fill, row 31: the line this slice hit. Rows 100
    // and 31 repeat (coalesced views), and 300 and 301 sit on the
    // unwritten page (filler scratch).
    std::vector<std::uint64_t> rows(30);
    std::iota(rows.begin(), rows.end(), 100);
    rows.push_back(31);
    for (std::uint64_t row = 200; row < 232; ++row)
        rows.push_back(row);
    rows.insert(rows.end(), {100, 300, 31, 301});
    const model::Sample slice = sliceSample(*dev, 0, rows);

    const EvCache &cache = *dev->embeddingEngine().cache();
    const std::uint64_t hitsBefore = cache.hits().value();
    const std::uint64_t coalescedBefore =
        dev->embeddingEngine().coalescedLookups().value();
    expectRunBitExact(*dev, std::span(&slice, 1), unwritten);
    EXPECT_EQ(cache.hits().value() - hitsBefore, 1u);
    EXPECT_EQ(dev->embeddingEngine().coalescedLookups().value() -
                  coalescedBefore,
              2u);
}

TEST(EmbeddingEngineDifferential, RandomCachedCoalescedBatchesAreBitExact)
{
    // A 1024-line cache, rows drawn half the time from an 8-row head
    // (hits, duplicates and evictions within one slice), slices of up
    // to 200 lookups, and three unwritten pages in tables 0 and 5.
    const model::ModelConfig cfg = tinyConfig();
    const auto dev = cachedCoalescingDevice(cfg, 1024, 4);
    std::set<PageId> unwritten;
    for (const auto &[t, row] :
         {std::pair{0u, 5ull}, std::pair{0u, 300ull}, std::pair{5u, 40ull}})
        unwritten.insert(pageOf(*dev, t, row));
    dropPages(*dev, unwritten);

    Rng rng(0xd1ffULL);
    bool longSlice = false;
    for (int batch = 0; batch < 12; ++batch) {
        std::vector<model::Sample> samples;
        for (int i = 0; i < 1 + batch % 3; ++i) {
            model::Sample s = dev->model().makeSample(
                static_cast<std::uint64_t>(batch * 3 + i));
            for (auto &slice : s.indices) {
                slice.resize(rng.nextBounded(201));
                longSlice |= slice.size() > 128;
                for (auto &row : slice)
                    row = rng.nextBounded(2) == 0
                              ? rng.nextBounded(8)
                              : rng.nextBounded(cfg.rowsPerTable);
            }
            samples.push_back(std::move(s));
        }
        expectRunBitExact(*dev, samples, unwritten);
    }
    EXPECT_TRUE(longSlice);
    const EvCache &cache = *dev->embeddingEngine().cache();
    EXPECT_GT(cache.hits().value(), 0u);
    EXPECT_GT(cache.evictions().value(), 0u);
    EXPECT_GT(dev->embeddingEngine().coalescedLookups().value(), 0u);
}

} // namespace
} // namespace rmssd::engine
