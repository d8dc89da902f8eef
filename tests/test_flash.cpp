/**
 * @file
 * Unit + property tests for the flash substrate: geometry, Table II
 * timing formulas, backing store, die/bus contention, and the
 * vector-grained read path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "flash/backing_store.h"
#include "flash/channel.h"
#include "flash/die.h"
#include "flash/flash_array.h"
#include "flash/fmc.h"
#include "flash/geometry.h"
#include "flash/timing.h"
#include "sim/rng.h"

namespace rmssd::flash {
namespace {

/**
 * Geometry::decompose's inverse, written out from the layout it
 * documents: channel fastest, then die, plane, page, block.
 */
PageId
flatten(const Geometry &g, const Pba &pba)
{
    std::uint64_t ppn = pba.block;
    ppn = ppn * g.pagesPerBlock + pba.page;
    ppn = ppn * g.planesPerDie + pba.plane;
    ppn = ppn * g.diesPerChannel + pba.die;
    ppn = ppn * g.numChannels + pba.channel;
    return PageId{ppn};
}

TEST(Geometry, TableIICapacityIs32GB)
{
    const Geometry g = tableIIGeometry();
    EXPECT_EQ(g.numChannels, 4u);
    EXPECT_EQ(g.pageSizeBytes.raw(), 4096u);
    EXPECT_EQ(g.capacityBytes(), 32ull << 30);
    EXPECT_EQ(g.sectorsPerPage(), 8u);
}

TEST(Geometry, ConsecutivePagesStripeAcrossChannels)
{
    const Geometry g = tableIIGeometry();
    for (std::uint64_t ppn = 0; ppn < 64; ++ppn) {
        EXPECT_EQ(g.decompose(PageId{ppn}).channel,
                  ppn % g.numChannels);
    }
    // After all channels, the die advances.
    EXPECT_EQ(g.decompose(PageId{g.numChannels}).die, 1u);
}

class GeometryRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GeometryRoundTrip, DecomposeFlattenIsIdentity)
{
    const Geometry g = tableIIGeometry();
    const PageId ppn{GetParam() % g.totalPages()};
    EXPECT_EQ(flatten(g, g.decompose(ppn)), ppn);
}

INSTANTIATE_TEST_SUITE_P(
    SweepPpns, GeometryRoundTrip,
    ::testing::Values(0ull, 1ull, 17ull, 4095ull, 65536ull, 999999ull,
                      123456789ull, 7777777777ull, 8388607ull));

TEST(Geometry, ValidateRejectsBadPageSize)
{
    Geometry g = tableIIGeometry();
    g.sectorSizeBytes = Bytes{513};
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1), "multiple");
}

TEST(NandTiming, TableIIPageRead)
{
    const NandTiming t = tableIITiming();
    // Cpage = 4000 cycles = 20 us.
    EXPECT_EQ(t.pageReadTotalCycles(), Cycle{4000});
    EXPECT_EQ(t.flushCycles(), Cycle{2800});
    EXPECT_EQ(t.transferCycles(Bytes{4096}), Cycle{1200});
}

class CevFormula : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CevFormula, MatchesTableII)
{
    // Table II: CEV = 0.293 * EVsize + 2800 cycles.
    const NandTiming t = tableIITiming();
    const std::uint32_t evSize = GetParam();
    const Cycle expect =
        Cycle{static_cast<std::uint64_t>(
            std::ceil(0.3 * 4000.0 * evSize / 4096.0))} +
        Cycle{2800};
    EXPECT_EQ(t.vectorReadTotalCycles(Bytes{evSize}), expect);
    // And the approximate closed form from the paper.
    EXPECT_NEAR(static_cast<double>(
                    t.vectorReadTotalCycles(Bytes{evSize}).raw()),
                0.293 * evSize + 2800.0, 1.5);
}

INSTANTIATE_TEST_SUITE_P(SweepEvSizes, CevFormula,
                         ::testing::Values(64u, 128u, 256u, 512u, 1024u,
                                           2048u, 4096u));

TEST(BackingStore, PageRoundTrip)
{
    BackingStore store(Bytes{4096});
    std::vector<std::uint8_t> page(4096);
    std::iota(page.begin(), page.end(), 0);
    store.writePage(PageId{42}, page);
    std::vector<std::uint8_t> out(4096);
    store.read(PageId{42}, Bytes{}, out);
    EXPECT_EQ(out, page);
    EXPECT_EQ(store.materializedPages(), 1u);
}

TEST(BackingStore, UnwrittenReadsAreDeterministic)
{
    BackingStore a(Bytes{4096});
    BackingStore b(Bytes{4096});
    std::vector<std::uint8_t> x(64), y(64);
    a.read(PageId{7}, Bytes{100}, x);
    b.read(PageId{7}, Bytes{100}, y);
    EXPECT_EQ(x, y);
}

TEST(BackingStore, PartialWritePreservesFiller)
{
    BackingStore store(Bytes{4096});
    std::vector<std::uint8_t> before(4096);
    store.read(PageId{9}, Bytes{}, before);

    const std::vector<std::uint8_t> patch(16, 0xAB);
    store.writePartial(PageId{9}, Bytes{128}, patch);

    std::vector<std::uint8_t> after(4096);
    store.read(PageId{9}, Bytes{}, after);
    for (std::uint32_t i = 0; i < 4096; ++i) {
        if (i >= 128 && i < 144)
            EXPECT_EQ(after[i], 0xAB);
        else
            EXPECT_EQ(after[i], before[i]) << "offset " << i;
    }
}

TEST(BackingStore, NewPagePartialWriteEqualsFillThenCopy)
{
    // A write to a new page fills only the bytes it leaves untouched;
    // the page must read back as if all of it were filled first.
    constexpr std::uint64_t kPage = 4096;
    const BackingStore filler(Bytes{kPage}); // never written
    struct Range
    {
        std::uint64_t offset;
        std::uint64_t size;
    };
    const Range ranges[] = {
        {0, 128}, {3968, 128}, {100, 1000}, {0, kPage}, {4095, 1}};
    std::uint64_t ppn = 3;
    for (const Range &range : ranges) {
        BackingStore store(Bytes{kPage});
        std::vector<std::uint8_t> patch(range.size);
        std::iota(patch.begin(), patch.end(), 7);
        store.writePartial(PageId{ppn}, Bytes{range.offset}, patch);

        std::vector<std::uint8_t> want(kPage);
        filler.read(PageId{ppn}, Bytes{}, want);
        std::copy(patch.begin(), patch.end(),
                  want.begin() + static_cast<std::ptrdiff_t>(range.offset));
        std::vector<std::uint8_t> got(kPage);
        store.read(PageId{ppn}, Bytes{}, got);
        EXPECT_EQ(got, want) << "offset " << range.offset << " size "
                             << range.size;
        ppn += 1000;
    }
}

TEST(BackingStore, MatchesMapReferenceModel)
{
    // Random writes, partial writes and reads against a std::map
    // model: hundreds of live pages grow the index through several
    // rehashes, and unwritten pages must keep reading as filler.
    constexpr std::uint64_t kPage = 64;
    constexpr std::uint64_t kIdSpace = 400;
    BackingStore store(Bytes{kPage});
    BackingStore filler(Bytes{kPage}); // never written: filler oracle
    std::map<std::uint64_t, std::vector<std::uint8_t>> model;
    Rng rng(0xb5ULL);

    const auto pageOf = [&](std::uint64_t id) {
        // Sparse, clustered ids like physical page numbers.
        return PageId{(id / 8) * 0x10000ULL + id % 8};
    };
    const auto expected = [&](std::uint64_t id) {
        const auto it = model.find(id);
        if (it != model.end())
            return it->second;
        std::vector<std::uint8_t> page(kPage);
        filler.read(pageOf(id), Bytes{}, page);
        return page;
    };

    std::size_t peakPages = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t id = rng.nextBounded(
            step < 10000 ? kIdSpace / 4 + step / 40 : kIdSpace);
        const PageId ppn = pageOf(id);
        switch (rng.nextBounded(6)) {
          case 0: {
            std::vector<std::uint8_t> page(kPage);
            for (auto &b : page)
                b = static_cast<std::uint8_t>(rng.next());
            store.writePage(ppn, page);
            model[id] = page;
            break;
          }
          case 1: {
            const std::uint64_t off = rng.nextBounded(kPage);
            std::vector<std::uint8_t> patch(
                1 + rng.nextBounded(kPage - off));
            for (auto &b : patch)
                b = static_cast<std::uint8_t>(rng.next());
            store.writePartial(ppn, Bytes{off}, patch);
            std::vector<std::uint8_t> page = expected(id);
            std::copy(patch.begin(), patch.end(),
                      page.begin() + static_cast<std::ptrdiff_t>(off));
            model[id] = page;
            break;
          }
          default: {
            const std::uint64_t off = rng.nextBounded(kPage);
            std::vector<std::uint8_t> out(rng.nextBounded(kPage - off + 1));
            store.read(ppn, Bytes{off}, out);
            const std::vector<std::uint8_t> want = expected(id);
            ASSERT_TRUE(std::equal(
                out.begin(), out.end(),
                want.begin() + static_cast<std::ptrdiff_t>(off)))
                << "step " << step << " page " << id;
            break;
          }
        }
        ASSERT_EQ(store.materializedPages(), model.size())
            << "step " << step;
        peakPages = std::max(peakPages, model.size());
    }
    // From 16 buckets, at most 1/2 full: at least five rehashes.
    EXPECT_GT(peakPages, 128u);

    // Final sweep over the whole id space, written or not.
    for (std::uint64_t id = 0; id < kIdSpace; ++id) {
        std::vector<std::uint8_t> out(kPage);
        store.read(pageOf(id), Bytes{}, out);
        EXPECT_EQ(out, expected(id)) << "page " << id;
    }
}

TEST(BackingStore, ViewSurvivesGrowthPastChunkBoundaries)
{
    // Pages live in chunks that are never relocated: a view taken
    // before the arena grows by two more chunks still reads the page.
    constexpr std::uint64_t kPage = 4096;
    BackingStore store(Bytes{kPage});
    std::vector<std::uint8_t> page(kPage);
    std::iota(page.begin(), page.end(), 3);
    store.writePage(PageId{5}, page);
    const std::span<const std::uint8_t> view =
        store.view(PageId{5}, Bytes{128}, Bytes{256}, {});

    const std::vector<std::uint8_t> other(kPage, 0x5a);
    const std::uint64_t morePages =
        2 * BackingStore::kChunkBytes.raw() / kPage + 1;
    for (std::uint64_t p = 1; p <= morePages; ++p)
        store.writePage(PageId{5 + 7 * p}, other);
    ASSERT_EQ(store.materializedPages(), morePages + 1);

    EXPECT_TRUE(std::equal(view.begin(), view.end(), page.begin() + 128));
    // The view is the stored page itself, not a copy of it.
    EXPECT_EQ(store.view(PageId{5}, Bytes{128}, Bytes{256}, {}).data(),
              view.data());
}

TEST(BackingStore, UnwrittenViewEqualsReadFiller)
{
    // An unwritten page's view is the caller's scratch holding exactly
    // the filler read() copies out, and nothing past the read.
    constexpr std::uint64_t kPage = 4096;
    BackingStore store(Bytes{kPage});
    store.writePage(PageId{1}, std::vector<std::uint8_t>(kPage, 9));
    struct Range
    {
        std::uint64_t offset;
        std::uint64_t size;
    };
    for (const Range &range :
         {Range{0, 128}, Range{100, 64}, Range{3968, 128}, Range{0, kPage}}) {
        std::vector<std::uint8_t> scratch(range.size + 8, 0xee);
        const std::span<const std::uint8_t> view = store.view(
            PageId{42}, Bytes{range.offset}, Bytes{range.size}, scratch);
        EXPECT_EQ(view.data(), scratch.data());
        ASSERT_EQ(view.size(), range.size);
        std::vector<std::uint8_t> want(range.size);
        store.read(PageId{42}, Bytes{range.offset}, want);
        EXPECT_TRUE(std::equal(view.begin(), view.end(), want.begin()))
            << "offset " << range.offset;
        EXPECT_EQ(scratch[range.size], 0xee) << "offset " << range.offset;
    }
    EXPECT_EQ(store.materializedPages(), 1u);
}

TEST(FlashDie, OperationsSerialize)
{
    FlashDie die;
    EXPECT_EQ(die.acquire(Cycle{}, Cycle{100}), Cycle{100});
    // Second op issued at cycle 10 must wait for the first.
    EXPECT_EQ(die.acquire(Cycle{10}, Cycle{100}), Cycle{200});
    // An op issued after idle starts immediately.
    EXPECT_EQ(die.acquire(Cycle{500}, Cycle{100}), Cycle{600});
    EXPECT_EQ(die.busyCycles(), Cycle{300});
}

TEST(ChannelBus, TransfersSerialize)
{
    ChannelBus bus;
    EXPECT_EQ(bus.transfer(Cycle{}, Cycle{50}), Cycle{50});
    EXPECT_EQ(bus.transfer(Cycle{}, Cycle{50}), Cycle{100});
    EXPECT_EQ(bus.transfer(Cycle{1000}, Cycle{50}), Cycle{1050});
}

TEST(Fmc, PageReadUsesFlushPlusFullTransfer)
{
    const NandTiming t = tableIITiming();
    Fmc fmc(4, t);
    const ReadTiming r = fmc.readPage(Cycle{}, 0);
    EXPECT_EQ(r.flushDone, t.flushCycles());
    EXPECT_EQ(r.done, t.flushCycles() + t.transferCycles(Bytes{4096}));
    EXPECT_EQ(fmc.pageReads().value(), 1u);
    EXPECT_EQ(fmc.busBytes().value(), 4096u);
}

TEST(Fmc, VectorReadTransfersOnlyEvBytes)
{
    const NandTiming t = tableIITiming();
    Fmc fmc(4, t);
    const VectorTransfer xfer = fmc.vectorTransfer(Bytes{128});
    const ReadTiming r = fmc.readVector(Cycle{}, 0, xfer);
    EXPECT_EQ(r.done, t.vectorReadTotalCycles(Bytes{128}));
    EXPECT_EQ(fmc.busBytes().value(), 128u);
}

TEST(Fmc, FlushesOverlapAcrossDiesButBusSerializes)
{
    const NandTiming t = tableIITiming();
    Fmc fmc(4, t);
    // Two vector reads on different dies issued together: flushes
    // overlap; transfers serialize on the shared bus.
    const VectorTransfer xfer = fmc.vectorTransfer(Bytes{128});
    const ReadTiming a = fmc.readVector(Cycle{}, 0, xfer);
    const ReadTiming b = fmc.readVector(Cycle{}, 1, xfer);
    EXPECT_EQ(a.flushDone, b.flushDone);
    EXPECT_EQ(b.done, a.done + t.transferCycles(Bytes{128}));
}

TEST(Fmc, SameDieReadsSerializeOnFlush)
{
    const NandTiming t = tableIITiming();
    Fmc fmc(4, t);
    const VectorTransfer xfer = fmc.vectorTransfer(Bytes{128});
    fmc.readVector(Cycle{}, 0, xfer);
    const ReadTiming b = fmc.readVector(Cycle{}, 0, xfer);
    EXPECT_EQ(b.flushDone, 2 * t.flushCycles());
}

TEST(FlashArray, VectorReadEqualsPageSlice)
{
    // Property: for random pages/offsets, a vector-grained read must
    // return exactly the same bytes as the slice of a page read.
    FlashArray array(tableIIGeometry(), tableIITiming());
    Rng rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        const PageId ppn{rng.nextBounded(1 << 20)};
        std::vector<std::uint8_t> page(4096);
        for (auto &b : page)
            b = static_cast<std::uint8_t>(rng.next());
        array.store().writePage(ppn, page);

        const std::uint32_t evBytes = 128;
        const std::uint32_t offset =
            static_cast<std::uint32_t>(rng.nextBounded(4096 / evBytes)) *
            evBytes;
        std::vector<std::uint8_t> scratch(evBytes);
        const std::span<const std::uint8_t> vec =
            array.readVector(Cycle{}, ppn, Bytes{offset},
                             array.vectorTransfer(Bytes{evBytes}), scratch)
                .data;
        ASSERT_EQ(vec.size(), evBytes);
        for (std::uint32_t i = 0; i < evBytes; ++i)
            EXPECT_EQ(vec[i], page[offset + i]);
    }
}

TEST(FlashArray, StripedReadsLandOnAllChannels)
{
    FlashArray array(tableIIGeometry(), tableIITiming());
    for (std::uint64_t ppn = 0; ppn < 16; ++ppn)
        array.readVector(Cycle{}, PageId{ppn}, Bytes{},
                         array.vectorTransfer(Bytes{128}), {});
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(array.fmc(c).vectorReads().value(), 4u);
    EXPECT_EQ(array.totalVectorReads(), 16u);
    EXPECT_EQ(array.totalBusBytes(), 16u * 128u);
}

TEST(FlashArray, BulkVectorReadsBeatBulkPageReads)
{
    // Section IV-B2: vector-grained reads raise bulk throughput, not
    // just single-read latency.
    FlashArray pages(tableIIGeometry(), tableIITiming());
    FlashArray vectors(tableIIGeometry(), tableIITiming());
    Cycle pageDone;
    Cycle vecDone;
    for (std::uint64_t i = 0; i < 256; ++i) {
        pageDone = std::max(
            pageDone, pages.readPage(Cycle{}, PageId{i}, {}).done);
        vecDone = std::max(
            vecDone, vectors
                         .readVector(Cycle{}, PageId{i}, Bytes{},
                                     vectors.vectorTransfer(Bytes{128}), {})
                         .done);
    }
    EXPECT_LT(vecDone, pageDone);
}

TEST(FlashArray, ProgramThenReadRoundTrips)
{
    FlashArray array(tableIIGeometry(), tableIITiming());
    std::vector<std::uint8_t> page(4096, 0x5A);
    const Cycle done = array.programPage(Cycle{}, PageId{99}, page);
    EXPECT_GT(done, Cycle{});
    std::vector<std::uint8_t> out(4096);
    array.readPage(done, PageId{99}, out);
    EXPECT_EQ(out, page);
}

TEST(FlashArray, ResetTimingKeepsData)
{
    FlashArray array(tableIIGeometry(), tableIITiming());
    std::vector<std::uint8_t> page(4096, 0x11);
    array.store().writePage(PageId{3}, page);
    array.readPage(Cycle{}, PageId{3}, {});
    array.resetTiming();
    std::vector<std::uint8_t> out(4096);
    const ReadTiming r = array.readPage(Cycle{}, PageId{3}, out);
    EXPECT_EQ(r.done, tableIITiming().pageReadTotalCycles());
    EXPECT_EQ(out, page);
}

/**
 * A non-power-of-two geometry with non-default timing: channel and die
 * counts that no shift or mask can stand in for, and a flush fraction
 * whose transfer share leaves a remainder on almost every byte count.
 */
Geometry
oddGeometry()
{
    Geometry g;
    g.numChannels = 3;
    g.diesPerChannel = 5;
    g.planesPerDie = 2;
    g.blocksPerPlane = 7;
    g.pagesPerBlock = 11;
    return g;
}

NandTiming
oddTiming()
{
    NandTiming t;
    t.flushFraction = 0.65;
    t.pageReadCycles = Cycle{3999};
    return t;
}

TEST(FlashArrayDifferential, MatchesDecomposeAndNandTimingReference)
{
    // Vector reads route by (channel, die) only and the FMC fixes its
    // flush and transfer cycles at construction. Over a fixed-seed
    // stream of vector reads (plus page reads and programs, which
    // share the dies and buses) every read must charge exactly the die
    // and channel Geometry::decompose names, at exactly the cycles a
    // reference built from NandTiming's own formulas gives.
    const Geometry g = oddGeometry();
    const NandTiming t = oddTiming();
    FlashArray array(g, t);
    ASSERT_EQ(t.flushCycles(), Cycle{2599});
    ASSERT_EQ(t.transferCycles(g.pageSizeBytes), Cycle{1400});

    const std::uint32_t numDies = g.numChannels * g.diesPerChannel;
    std::vector<Cycle> dieFree(numDies);
    std::vector<Cycle> dieBusy(numDies);
    std::vector<Cycle> busFree(g.numChannels);
    std::vector<std::uint64_t> vectorReads(g.numChannels);
    const std::uint64_t pageBytes = g.pageSizeBytes.raw();

    Rng rng(0x5eed);
    Cycle issue;
    for (int step = 0; step < 4000; ++step) {
        // Idle gaps shorter than a flush keep dies and buses contended.
        issue += Cycle{rng.nextBounded(1500)};
        const PageId ppn{step % 97 == 0 ? g.totalPages() - 1
                                        : rng.nextBounded(g.totalPages())};
        const Pba pba = g.decompose(ppn);
        const std::uint32_t d = pba.channel * g.diesPerChannel + pba.die;
        const std::uint64_t op = rng.nextBounded(8);

        if (op == 0) {
            const Cycle busDone = std::max(issue, busFree[pba.channel]) +
                                  t.transferCycles(g.pageSizeBytes);
            busFree[pba.channel] = busDone;
            dieFree[d] = std::max(busDone, dieFree[d]) + t.pageProgramCycles;
            dieBusy[d] += t.pageProgramCycles;
            ASSERT_EQ(array.programPage(issue, ppn, {}), dieFree[d])
                << "step " << step;
        } else {
            const bool page = op == 1;
            const std::uint64_t bytes =
                page ? pageBytes : 1 + rng.nextBounded(pageBytes);
            const std::uint64_t col =
                page ? 0 : rng.nextBounded(pageBytes - bytes + 1);
            const Cycle flushDone =
                std::max(issue, dieFree[d]) + t.flushCycles();
            dieFree[d] = flushDone;
            dieBusy[d] += t.flushCycles();
            // Pin the reference itself: the bus share is the exact ceil
            // of 1400 cycles scaled by bytes / 4096 (exact in double).
            ASSERT_EQ(t.transferCycles(Bytes{bytes}),
                      Cycle{static_cast<std::uint64_t>(std::ceil(
                          1400.0 * static_cast<double>(bytes) / 4096.0))});
            const Cycle done = std::max(flushDone, busFree[pba.channel]) +
                               t.transferCycles(Bytes{bytes});
            busFree[pba.channel] = done;

            const ReadTiming r =
                page ? array.readPage(issue, ppn, {})
                     : array.readVector(issue, ppn, Bytes{col},
                                        array.vectorTransfer(Bytes{bytes}),
                                        {});
            ASSERT_EQ(r.flushDone, flushDone) << "step " << step;
            ASSERT_EQ(r.done, done) << "step " << step;
            if (!page)
                ++vectorReads[pba.channel];
        }

        // Only the named die and channel moved.
        for (std::uint32_t c = 0; c < g.numChannels; ++c) {
            ASSERT_EQ(array.fmc(c).vectorReads().value(), vectorReads[c])
                << "step " << step;
            for (std::uint32_t die = 0; die < g.diesPerChannel; ++die) {
                ASSERT_EQ(array.fmc(c).dieBusyCycles(die),
                          dieBusy[c * g.diesPerChannel + die])
                    << "step " << step << " channel " << c << " die "
                    << die;
            }
        }
    }
}

class LaneRouting
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(LaneRouting, EveryPageOfThreeStripesMatchesDecompose)
{
    // A vector read finds its (channel, die) in the lane table at
    // ppn mod (C x D). Read every page of the first three stripes and
    // the last page, in order, 100 cycles apart, so a die's next read
    // arrives before its flush ends, and compare every FMC counter
    // with a reference that routes by Geometry::decompose.
    Geometry g = oddGeometry();
    g.numChannels = GetParam().first;
    g.diesPerChannel = GetParam().second;
    g.blocksPerPlane = 3;
    g.pagesPerBlock = 4;
    const NandTiming t = oddTiming();
    FlashArray array(g, t);

    const std::uint32_t lanes = g.numChannels * g.diesPerChannel;
    std::vector<PageId> pages;
    for (std::uint64_t ppn = 0; ppn < 3 * lanes; ++ppn)
        pages.push_back(PageId{ppn});
    pages.push_back(PageId{g.totalPages() - 1});

    std::vector<Cycle> dieFree(lanes);
    std::vector<Cycle> dieBusy(lanes);
    std::vector<std::uint64_t> conflicts(g.numChannels);
    std::vector<Cycle> busFree(g.numChannels);
    std::vector<std::uint64_t> reads(g.numChannels);
    std::vector<std::uint64_t> busBytes(g.numChannels);
    Cycle issue;
    for (const PageId ppn : pages) {
        issue += Cycle{100};
        const Bytes bytes{64 + ppn.raw() * 96 % 4000};
        const Pba pba = g.decompose(ppn);
        const std::uint32_t d = pba.channel * g.diesPerChannel + pba.die;
        if (dieFree[d] > issue)
            ++conflicts[pba.channel];
        const Cycle flushDone = std::max(issue, dieFree[d]) + t.flushCycles();
        dieFree[d] = flushDone;
        dieBusy[d] += t.flushCycles();
        const Cycle done = std::max(flushDone, busFree[pba.channel]) +
                           t.transferCycles(bytes);
        busFree[pba.channel] = done;
        ++reads[pba.channel];
        busBytes[pba.channel] += bytes.raw();

        const ReadTiming r = array.readVector(issue, ppn, Bytes{},
                                              array.vectorTransfer(bytes));
        ASSERT_EQ(r.flushDone, flushDone) << "ppn " << ppn.raw();
        ASSERT_EQ(r.done, done) << "ppn " << ppn.raw();
        for (std::uint32_t c = 0; c < g.numChannels; ++c) {
            const Fmc &fmc = array.fmc(c);
            ASSERT_EQ(fmc.vectorReads().value(), reads[c]) << "ppn "
                                                           << ppn.raw();
            ASSERT_EQ(fmc.busBytes().value(), busBytes[c]);
            ASSERT_EQ(fmc.dieConflicts().value(), conflicts[c]);
            for (std::uint32_t die = 0; die < g.diesPerChannel; ++die)
                ASSERT_EQ(fmc.dieBusyCycles(die),
                          dieBusy[c * g.diesPerChannel + die])
                    << "ppn " << ppn.raw() << " channel " << c << " die "
                    << die;
        }
    }
    // The stream queued reads behind busy dies on every geometry.
    EXPECT_GT(std::accumulate(conflicts.begin(), conflicts.end(),
                              std::uint64_t{0}),
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LaneRouting,
    ::testing::Values(std::pair<std::uint32_t, std::uint32_t>{1, 1},
                      std::pair<std::uint32_t, std::uint32_t>{3, 5},
                      std::pair<std::uint32_t, std::uint32_t>{7, 3}),
    [](const auto &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

TEST(FlashArrayDeathTest, VectorReadPastLastPageDies)
{
    const Geometry g = oddGeometry();
    FlashArray array(g, oddTiming());
    EXPECT_DEATH(array.readVector(Cycle{}, PageId{g.totalPages()},
                                  Bytes{}, array.vectorTransfer(Bytes{128}),
                                  {}),
                 "ppn out of range");
}

TEST(FlashArrayDeathTest, VectorReadAcrossPageBoundaryDies)
{
    FlashArray array(oddGeometry(), oddTiming());
    EXPECT_DEATH(array.readVector(Cycle{}, PageId{5}, Bytes{4000},
                                  array.vectorTransfer(Bytes{128}), {}),
                 "crosses page boundary");
}

TEST(FmcDeathTest, TransferLargerThanAPageDies)
{
    Fmc fmc(5, oddTiming());
    EXPECT_DEATH(fmc.readVector(Cycle{}, 0, fmc.vectorTransfer(Bytes{4097})),
                 "transfer larger than a page");
}

} // namespace
} // namespace rmssd::flash
