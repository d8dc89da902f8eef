/**
 * @file
 * Unit + property tests for the EV Translator (Fig. 6): index to
 * (logical flash page, byte in page) over single- and multi-extent
 * tables, checked against the LBA-form address the FTL translates.
 */

#include <gtest/gtest.h>

#include "engine/ev_translator.h"
#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/ftl.h"
#include "sim/rng.h"

namespace rmssd::engine {
namespace {

constexpr Bytes kSectorSize{512};
constexpr Bytes kPageSize{4096};

/**
 * The reference for a translated read: the flat file offset of the
 * vector located in its extents (the LBA form), then taken to its page
 * by Ftl::translate under the linear mapping, where ppn = lpn.
 */
class LbaReference
{
  public:
    LbaReference()
        : array_(flash::tableIIGeometry(), flash::tableIITiming()),
          ftl_(ftl::Ftl::makeLinear(array_))
    {
    }

    void
    expectSame(const EvReadRequest &req, const ftl::ExtentList &extents,
               std::uint64_t index, Bytes evBytes)
    {
        const auto loc =
            extents.locateByte(Bytes{index * evBytes.raw()}, kSectorSize);
        const ftl::Ftl::PhysLoc want =
            ftl_.translate(loc.lba, loc.byteInSector);
        EXPECT_EQ(req.lpn, want.ppn) << "index " << index;
        EXPECT_EQ(req.byteInPage, want.pageByteOffset) << "index " << index;
        EXPECT_EQ(req.bytes, evBytes) << "index " << index;
    }

  private:
    flash::FlashArray array_;
    ftl::Ftl ftl_;
};

TEST(EvTranslator, SingleExtentLinearLayout)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    extents.append(
        ftl::Extent{Lba{1000}, Sectors{64}}); // 32 KB = 256 x 128 B
    tr.registerTable(TableId{}, extents, Bytes{128}, 256);

    // LBA 1000 is byte 512 000, the start of page 125.
    const EvReadRequest r0 = tr.translate(TableId{}, EvIndex{});
    EXPECT_EQ(r0.lpn, PageId{125});
    EXPECT_EQ(r0.byteInPage, Bytes{});
    EXPECT_EQ(r0.bytes, Bytes{128});

    // Index 5 -> byte 640 of the same page.
    const EvReadRequest r5 = tr.translate(TableId{}, EvIndex{5});
    EXPECT_EQ(r5.lpn, PageId{125});
    EXPECT_EQ(r5.byteInPage, Bytes{640});

    // Index 32 -> the next page.
    const EvReadRequest r32 = tr.translate(TableId{}, EvIndex{32});
    EXPECT_EQ(r32.lpn, PageId{126});
    EXPECT_EQ(r32.byteInPage, Bytes{});
}

TEST(EvTranslator, MultiExtentBoundaries)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    // vectors 0..31 (128 B each), then 32..63
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    extents.append(ftl::Extent{Lba{1000}, Sectors{8}});
    tr.registerTable(TableId{}, extents, Bytes{128}, 64);

    const TableId t0{};
    EXPECT_EQ(tr.translate(t0, EvIndex{31}).lpn, PageId{});
    EXPECT_EQ(tr.translate(t0, EvIndex{31}).byteInPage, Bytes{3968});
    EXPECT_EQ(tr.translate(t0, EvIndex{32}).lpn, PageId{125});
    EXPECT_EQ(tr.translate(t0, EvIndex{32}).byteInPage, Bytes{});
    EXPECT_EQ(tr.translate(t0, EvIndex{63}).lpn, PageId{125});
    EXPECT_EQ(tr.translate(t0, EvIndex{63}).byteInPage, Bytes{3968});
}

class TranslatorProperty : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TranslatorProperty, MatchesFlatFileOffsetForRandomExtents)
{
    // Property: translation through extent index ranges equals the
    // naive flat-file computation for arbitrary fragmentations.
    const std::uint32_t evBytes = GetParam();
    Rng rng(GetParam());
    LbaReference reference;
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    std::uint64_t next = 0;
    for (int e = 0; e < 6; ++e) {
        // Page-aligned extents of random page counts.
        const std::uint64_t sectors = 8 * (1 + rng.nextBounded(20));
        extents.append(ftl::Extent{Lba{next}, Sectors{sectors}});
        next += sectors + 8 * (1 + rng.nextBounded(5));
    }
    const std::uint64_t rows =
        extents.totalSectors().raw() * kSectorSize.raw() / evBytes;
    tr.registerTable(TableId{}, extents, Bytes{evBytes}, rows);

    for (int probe = 0; probe < 200; ++probe) {
        const std::uint64_t idx = rng.nextBounded(rows);
        reference.expectSame(tr.translate(TableId{}, EvIndex{idx}), extents,
                             idx, Bytes{evBytes});
    }
}

TEST_P(TranslatorProperty, EveryExtentEdgeMatchesFtlTranslate)
{
    // Random extents at any sector, page-aligned or not, of random
    // lengths that hold whole vectors: both sides of every extent edge
    // land on the page and byte Ftl::translate gives the LBA form.
    const std::uint32_t evBytes = GetParam();
    const std::uint64_t sectorsPerVector =
        evBytes >= kSectorSize.raw() ? evBytes / kSectorSize.raw() : 1;
    Rng rng(0xed6e + GetParam());
    LbaReference reference;
    for (int trial = 0; trial < 20; ++trial) {
        EvTranslator tr(kSectorSize, kPageSize);
        ftl::ExtentList extents;
        std::uint64_t next = rng.nextBounded(100000);
        const int count = 1 + static_cast<int>(rng.nextBounded(8));
        for (int e = 0; e < count; ++e) {
            const std::uint64_t sectors =
                sectorsPerVector * (1 + rng.nextBounded(40));
            extents.append(ftl::Extent{Lba{next}, Sectors{sectors}});
            next += sectors + rng.nextBounded(3000);
        }
        const std::uint64_t rows =
            extents.totalSectors().raw() * kSectorSize.raw() / evBytes;
        tr.registerTable(TableId{}, extents, Bytes{evBytes}, rows);

        std::uint64_t first = 0;
        for (const ftl::Extent &e : extents.extents()) {
            const std::uint64_t end =
                first + e.sectorCount.raw() * kSectorSize.raw() / evBytes;
            for (const std::uint64_t idx : {first, first + 1, end - 1}) {
                if (idx < end)
                    reference.expectSame(tr.translate(TableId{}, EvIndex{idx}),
                                         extents, idx, Bytes{evBytes});
            }
            first = end;
        }
        ASSERT_EQ(first, rows);
    }
}

INSTANTIATE_TEST_SUITE_P(SweepEvSizes, TranslatorProperty,
                         ::testing::Values(64u, 128u, 256u, 512u));

TEST(EvTranslator, MultipleTables)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList a;
    a.append(ftl::Extent{Lba{}, Sectors{8}});
    ftl::ExtentList b;
    b.append(ftl::Extent{Lba{100}, Sectors{8}});
    tr.registerTable(TableId{}, a, Bytes{128}, 32);
    tr.registerTable(TableId{1}, b, Bytes{256}, 16);
    EXPECT_EQ(tr.numTables(), 2u);
    EXPECT_EQ(tr.vectorBytes(TableId{}), Bytes{128});
    EXPECT_EQ(tr.vectorBytes(TableId{1}), Bytes{256});
    // LBA 100 is byte 51 200: byte 2048 of page 12.
    EXPECT_EQ(tr.translate(TableId{1}, EvIndex{}).lpn, PageId{12});
    EXPECT_EQ(tr.translate(TableId{1}, EvIndex{}).byteInPage, Bytes{2048});
}

TEST(EvTranslator, MetadataScanIsWidestTable)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList one;
    one.append(ftl::Extent{Lba{}, Sectors{8}});
    ftl::ExtentList three;
    three.append(ftl::Extent{Lba{100}, Sectors{8}});
    three.append(ftl::Extent{Lba{200}, Sectors{8}});
    three.append(ftl::Extent{Lba{300}, Sectors{8}});
    tr.registerTable(TableId{}, one, Bytes{128}, 32);
    tr.registerTable(TableId{1}, three, Bytes{128}, 96);
    EXPECT_EQ(tr.metadataScanCycles(), Cycle{3});
}

TEST(EvTranslator, UnregisteredTableIsFatal)
{
    EvTranslator tr(kSectorSize, kPageSize);
    EXPECT_EXIT(tr.translate(TableId{5}, EvIndex{}),
                ::testing::ExitedWithCode(1), "not registered");
}

TEST(EvTranslator, OutOfRangeIndexDies)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    tr.registerTable(TableId{}, extents, Bytes{128}, 32);
    EXPECT_DEATH(tr.translate(TableId{}, EvIndex{32}),
                 "out of range");
}

TEST(EvTranslator, UndersizedExtentsAreFatal)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    // room for 32 vectors only
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    EXPECT_EXIT(tr.registerTable(TableId{}, extents, Bytes{128}, 100),
                ::testing::ExitedWithCode(1), "extents cover");
}

TEST(EvTranslator, EveryExtentEdgeMatchesFlatFileOffset)
{
    // 96 B vectors (not a power of two) over extents of 48, 16, 32 and
    // 48 vectors (multiples of 3 sectors), and a one-extent table whose
    // rows stop short of the extent: each side of every extent edge
    // must land where the flat file offset says.
    EvTranslator tr(kSectorSize, kPageSize);
    LbaReference reference;
    ftl::ExtentList multi;
    multi.append(ftl::Extent{Lba{300}, Sectors{9}});
    multi.append(ftl::Extent{Lba{20}, Sectors{3}});
    multi.append(ftl::Extent{Lba{5000}, Sectors{6}});
    multi.append(ftl::Extent{Lba{77}, Sectors{9}});
    tr.registerTable(TableId{}, multi, Bytes{96}, 144);
    ftl::ExtentList single;
    single.append(ftl::Extent{Lba{900}, Sectors{12}}); // 64 vectors
    tr.registerTable(TableId{1}, single, Bytes{96}, 60);

    const auto expectFlat = [&](TableId table,
                                const ftl::ExtentList &extents,
                                std::uint64_t idx) {
        const EvReadRequest req = tr.translate(table, EvIndex{idx});
        reference.expectSame(req, extents, idx, Bytes{96});
        EXPECT_EQ(req.tableId, table);
    };
    for (const std::uint64_t edge : {0ull, 48ull, 64ull, 96ull, 144ull}) {
        if (edge > 0)
            expectFlat(TableId{}, multi, edge - 1);
        if (edge < 144)
            expectFlat(TableId{}, multi, edge);
    }
    for (const std::uint64_t idx : {0ull, 1ull, 58ull, 59ull})
        expectFlat(TableId{1}, single, idx);
}

TEST(EvTranslatorDeathTest, HoleInTheTableIdsIsFatal)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    tr.registerTable(TableId{2}, extents, Bytes{128}, 32);
    EXPECT_EXIT(tr.translate(TableId{1}, EvIndex{}),
                ::testing::ExitedWithCode(1), "table 1 is not registered");
}

TEST(EvTranslatorDeathTest, IndexPastTheLastExtentDies)
{
    EvTranslator tr(kSectorSize, kPageSize);
    ftl::ExtentList extents;
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    extents.append(ftl::Extent{Lba{1000}, Sectors{8}});
    tr.registerTable(TableId{}, extents, Bytes{128}, 64);
    EXPECT_DEATH(tr.translate(TableId{}, EvIndex{64}), "out of range");

    // Rows that stop short of a one-extent table's end are still
    // bounded by the row count.
    EvTranslator shortTable(kSectorSize, kPageSize);
    ftl::ExtentList one;
    one.append(ftl::Extent{Lba{}, Sectors{8}});
    shortTable.registerTable(TableId{}, one, Bytes{128}, 20);
    EXPECT_DEATH(shortTable.translate(TableId{}, EvIndex{20}),
                 "out of range");
}

} // namespace
} // namespace rmssd::engine
