/**
 * @file
 * Unit + property tests for the FTL: mappings, extents, the extent
 * allocator, and the byte-granular EV read path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/freq_mapping.h"
#include "ftl/ftl.h"
#include "ftl/mapping.h"
#include "sim/rng.h"

namespace rmssd::ftl {
namespace {

TEST(LinearMapping, IsIdentityWithinRange)
{
    LinearMapping m(1000);
    EXPECT_EQ(m.translate(PageId{}), PageId{});
    EXPECT_EQ(m.translate(PageId{999}), PageId{999});
    EXPECT_EQ(m.assignForWrite(PageId{17}), PageId{17});
    EXPECT_DEATH(m.translate(PageId{1000}),
                 "beyond device capacity");
}

TEST(ExtentList, LocatesBytesAcrossExtents)
{
    ExtentList list;
    list.append(Extent{Lba{100}, Sectors{8}});  // sectors 100..107
    list.append(Extent{Lba{500}, Sectors{16}}); // sectors 500..515
    EXPECT_EQ(list.totalSectors(), Sectors{24});

    auto loc = list.locateByte(Bytes{}, Bytes{512});
    EXPECT_EQ(loc.lba, Lba{100});
    EXPECT_EQ(loc.byteInSector, Bytes{});

    // Last byte of the first extent.
    loc = list.locateByte(Bytes{8 * 512 - 1}, Bytes{512});
    EXPECT_EQ(loc.lba, Lba{107});
    EXPECT_EQ(loc.byteInSector, Bytes{511});

    // First byte of the second extent.
    loc = list.locateByte(Bytes{8 * 512}, Bytes{512});
    EXPECT_EQ(loc.extentIndex, 1u);
    EXPECT_EQ(loc.lba, Lba{500});

    // Beyond end of file is fatal.
    EXPECT_EXIT(list.locateByte(Bytes{24 * 512}, Bytes{512}),
                ::testing::ExitedWithCode(1), "beyond end");
}

TEST(ExtentList, LocationPropertyAgainstFlatOffset)
{
    // Property: walking any byte offset through multi-extent files
    // matches the flat computation extent-by-extent.
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
        ExtentList list;
        std::vector<Extent> raw;
        std::uint64_t next = rng.nextBounded(1000);
        for (int e = 0; e < 5; ++e) {
            const std::uint64_t len = 1 + rng.nextBounded(64);
            raw.push_back(Extent{Lba{next}, Sectors{len}});
            list.append(raw.back());
            next += len + 1 + rng.nextBounded(100);
        }
        for (int probe = 0; probe < 50; ++probe) {
            const std::uint64_t byte =
                rng.nextBounded(list.totalSectors().raw() * 512);
            const auto loc = list.locateByte(Bytes{byte}, Bytes{512});
            // Recompute manually.
            std::uint64_t sector = byte / 512;
            std::uint32_t idx = 0;
            while (sector >= raw[idx].sectorCount.raw()) {
                sector -= raw[idx].sectorCount.raw();
                ++idx;
            }
            EXPECT_EQ(loc.extentIndex, idx);
            EXPECT_EQ(loc.lba, raw[idx].startLba + Sectors{sector});
            EXPECT_EQ(loc.byteInSector, Bytes{byte % 512});
        }
    }
}

TEST(ExtentAllocator, RoundsUpToPages)
{
    ExtentAllocator alloc(Sectors{1 << 20});
    // 3 sectors -> 1 page
    const ExtentList a = alloc.allocate(Sectors{3}, 8);
    EXPECT_EQ(a.totalSectors(), Sectors{8});
    // 9 sectors -> 2 pages
    const ExtentList b = alloc.allocate(Sectors{9}, 8);
    EXPECT_EQ(b.totalSectors(), Sectors{16});
    // Allocations are disjoint and sequential.
    EXPECT_EQ(b.extents()[0].startLba, Lba{8});
}

TEST(ExtentAllocator, FragmentsWhenLimited)
{
    ExtentAllocator alloc(Sectors{1 << 20},
                          /*maxFragmentSectors=*/Sectors{16});
    const ExtentList list = alloc.allocate(Sectors{64}, 8);
    EXPECT_EQ(list.totalSectors(), Sectors{64});
    EXPECT_EQ(list.extents().size(), 4u);
    for (const Extent &e : list.extents()) {
        EXPECT_EQ(e.sectorCount, Sectors{16});
        EXPECT_EQ(e.startLba % 8, Lba{}) << "fragment not page aligned";
    }
}

TEST(ExtentAllocator, ExhaustionIsFatal)
{
    ExtentAllocator alloc(Sectors{16});
    alloc.allocate(Sectors{8}, 8);
    EXPECT_EXIT(alloc.allocate(Sectors{16}, 8),
                ::testing::ExitedWithCode(1), "exhausted");
}

class FtlFixture : public ::testing::Test
{
  protected:
    FtlFixture()
        : array_(flash::tableIIGeometry(), flash::tableIITiming()),
          ftl_(Ftl::makeLinear(array_))
    {
    }

    flash::FlashArray array_;
    Ftl ftl_;
};

TEST_F(FtlFixture, TranslateSplitsPageAndOffset)
{
    // 8 sectors per page: LBA 13 = page 1, sector 5.
    const auto loc = ftl_.translate(Lba{13}, Bytes{100});
    EXPECT_EQ(loc.ppn, PageId{1});
    EXPECT_EQ(loc.pageByteOffset, Bytes{5 * 512 + 100});
}

TEST_F(FtlFixture, WriteThenReadBytesRoundTrips)
{
    std::vector<std::uint8_t> data(300);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    ftl_.writeBytesFunctional(Lba{3}, Bytes{17}, data);

    std::vector<std::uint8_t> scratch(300);
    const Ftl::PageLoc loc = ftl_.locate(Lba{3}, Bytes{17});
    const std::span<const std::uint8_t> out =
        ftl_.readVector(Cycle{}, loc.lpn, loc.byteInPage,
                        ftl_.array().vectorTransfer(Bytes{300}), scratch)
            .data;
    EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), data);
}

TEST_F(FtlFixture, WriteSpanningPagesRoundTrips)
{
    // 5000 bytes starting near a page end crosses a page boundary.
    std::vector<std::uint8_t> data(5000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    ftl_.writeBytesFunctional(Lba{7}, Bytes{}, data); // addr 3584

    std::vector<std::uint8_t> out(4096);
    ftl_.readSectors(Cycle{}, Lba{}, Sectors{8}, out);
    // First 512 bytes of the written data appear at sector 7's slot.
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(out[3584 + i], data[i]);
}

TEST_F(FtlFixture, ReadSectorsChargesWholePagesAndCounts)
{
    const Cycle done = ftl_.readSectors(Cycle{}, Lba{}, Sectors{16}, {});
    // Two pages on two different channels: flush + transfer each,
    // no shared resource -> both complete by one page-read time plus
    // the translate latency.
    EXPECT_EQ(done, Ftl::kTranslateCycles +
                        array_.timing().pageReadTotalCycles());
    EXPECT_EQ(array_.totalPageReads(), 2u);
    EXPECT_EQ(ftl_.blockRequests().value(), 1u);
}

TEST_F(FtlFixture, EvReadUsesVectorPathAndCounts)
{
    const Cycle done = ftl_.readVector(Cycle{}, PageId{}, Bytes{},
                                       ftl_.array().vectorTransfer(Bytes{128}));
    EXPECT_EQ(done,
              Ftl::kTranslateCycles +
                  array_.timing().vectorReadTotalCycles(Bytes{128}));
    EXPECT_EQ(array_.totalVectorReads(), 1u);
    EXPECT_EQ(ftl_.evRequests().value(), 1u);
}

TEST_F(FtlFixture, EvReadAcrossPageBoundaryDies)
{
    // LBA 7, byte 500 is byte 4084 of page 0.
    const Ftl::PageLoc loc = ftl_.locate(Lba{7}, Bytes{500});
    ASSERT_EQ(loc.byteInPage, Bytes{4084});
    EXPECT_DEATH(ftl_.readVector(Cycle{}, loc.lpn, loc.byteInPage,
                                 ftl_.array().vectorTransfer(Bytes{128})),
                 "crosses flash page boundary");
}

/** 3 channels x 5 dies x 2 planes: no power-of-two routing (960 pages). */
flash::FlashArray
makeOddArray()
{
    flash::Geometry g;
    g.numChannels = 3;
    g.diesPerChannel = 5;
    g.planesPerDie = 2;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 8;
    flash::FlashArray array(g, flash::tableIITiming());
    // Every physical page holds distinct bytes, so a read's contents
    // name the (ppn, offset) it came from.
    Rng fill(0xf111);
    std::vector<std::uint8_t> page(g.pageSizeBytes.raw());
    for (std::uint64_t ppn = 0; ppn < g.totalPages(); ++ppn) {
        for (auto &b : page)
            b = static_cast<std::uint8_t>(fill.next());
        array.store().writePage(PageId{ppn}, page);
    }
    return array;
}

/**
 * Drive a fixed-seed stream of EV reads through Ftl::readVector, each
 * addressed by Ftl::locate of a random (LBA, byte in sector), and
 * check each one reads where Ftl::translate says: the bytes equal the
 * store's at (ppn, offset) and the read lands on decompose(ppn)'s
 * channel and die. Half the reads hit 16 hot pages so a frequency
 * mapping's heat tracker sees repeats. Returns the LBAs read.
 */
std::vector<Lba>
expectReadBytesFollowsTranslate(flash::FlashArray &array, Ftl &ftl)
{
    const flash::Geometry &g = array.geometry();
    const std::uint64_t spp = ftl.sectorsPerPage();
    Rng rng(0x7a11);
    std::vector<Lba> lbas;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t pages =
            rng.nextBounded(2) == 0 ? 16 : g.totalPages();
        const Lba lba{rng.nextBounded(pages * spp)};
        const Bytes byteInSector{rng.nextBounded(ftl.sectorSize())};
        const Ftl::PhysLoc loc = ftl.translate(lba, byteInSector);
        const Bytes bytes{
            1 + rng.nextBounded(ftl.pageSize() - loc.pageByteOffset.raw())};
        const flash::Pba pba = g.decompose(loc.ppn);
        const flash::Fmc &fmc = array.fmc(pba.channel);
        const std::uint64_t readsBefore = fmc.vectorReads().value();
        const Cycle busyBefore = fmc.dieBusyCycles(pba.die);

        std::vector<std::uint8_t> scratch(bytes.raw());
        std::vector<std::uint8_t> want(bytes.raw());
        const Ftl::PageLoc page = ftl.locate(lba, byteInSector);
        EXPECT_EQ(page.byteInPage, loc.pageByteOffset) << "step " << step;
        const std::span<const std::uint8_t> out =
            ftl.readVector(Cycle{}, page.lpn, page.byteInPage,
                           ftl.array().vectorTransfer(bytes), scratch)
                .data;
        array.store().read(loc.ppn, loc.pageByteOffset, want);
        EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), want)
            << "step " << step;
        EXPECT_EQ(fmc.vectorReads().value(), readsBefore + 1)
            << "step " << step;
        EXPECT_EQ(fmc.dieBusyCycles(pba.die),
                  busyBefore + array.timing().flushCycles())
            << "step " << step;
        lbas.push_back(lba);
    }
    return lbas;
}

TEST(FtlDifferential, ReadBytesFollowsTranslateUnderLinearMapping)
{
    flash::FlashArray array = makeOddArray();
    Ftl ftl = Ftl::makeLinear(array);
    expectReadBytesFollowsTranslate(array, ftl);
    EXPECT_EQ(ftl.evRequests().value(), 3000u);
}

TEST(FtlDifferential, ReadBytesFollowsTranslateUnderFrequencyMapping)
{
    flash::FlashArray array = makeOddArray();
    const std::uint64_t pages = array.geometry().totalPages();
    auto owned = std::make_unique<FrequencyMapping>(pages);
    FrequencyMapping &mapping = *owned;
    std::vector<PageId> hot;
    for (std::uint64_t i = 0; i < 40; ++i)
        hot.push_back(PageId{pages - 1 - 23 * i});
    const auto swaps = mapping.planHotSet(hot);
    ASSERT_FALSE(swaps.empty());
    for (const auto &swap : swaps)
        mapping.commitSwap(swap);
    Ftl ftl(array, std::move(owned));

    const std::vector<Lba> lbas = expectReadBytesFollowsTranslate(array, ftl);

    // readVector fed the heat tracker the logical page of every read:
    // a mapping placed the same way and fed those pages directly plans
    // the same migration.
    FrequencyMapping reference(pages);
    for (const auto &swap : swaps)
        reference.commitSwap(swap);
    for (const Lba lba : lbas)
        reference.readPage(PageId{lba.raw() / ftl.sectorsPerPage()});
    EXPECT_EQ(mapping.observedReads(), reference.observedReads());
    const auto plan = mapping.planMigration(32, 0.0, UINT64_MAX);
    const auto want = reference.planMigration(32, 0.0, UINT64_MAX);
    EXPECT_EQ(plan.observed, 32u);
    EXPECT_EQ(plan.observed, want.observed);
    EXPECT_EQ(plan.missing, want.missing);
    ASSERT_EQ(plan.swaps.size(), want.swaps.size());
    ASSERT_FALSE(plan.swaps.empty());
    for (std::size_t i = 0; i < plan.swaps.size(); ++i) {
        EXPECT_EQ(plan.swaps[i].hotLpn, want.swaps[i].hotLpn);
        EXPECT_EQ(plan.swaps[i].fromPpn, want.swaps[i].fromPpn);
        EXPECT_EQ(plan.swaps[i].toPpn, want.swaps[i].toPpn);
        EXPECT_EQ(plan.swaps[i].displacedLpn, want.swaps[i].displacedLpn);
    }
}

} // namespace
} // namespace rmssd::ftl
