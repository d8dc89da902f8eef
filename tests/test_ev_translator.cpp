/**
 * @file
 * Unit + property tests for the EV Translator (Fig. 6): index-to-LBA
 * translation over single- and multi-extent tables.
 */

#include <gtest/gtest.h>

#include "engine/ev_translator.h"
#include "ftl/extent.h"
#include "sim/rng.h"

namespace rmssd::engine {
namespace {

constexpr Bytes kSectorSize{512};

TEST(EvTranslator, SingleExtentLinearLayout)
{
    EvTranslator tr(kSectorSize);
    ftl::ExtentList extents;
    extents.append(
        ftl::Extent{Lba{1000}, Sectors{64}}); // 32 KB = 256 x 128 B
    tr.registerTable(TableId{}, extents, Bytes{128}, 256);

    const EvReadRequest r0 = tr.translate(TableId{}, EvIndex{});
    EXPECT_EQ(r0.lba, Lba{1000});
    EXPECT_EQ(r0.byteInSector, Bytes{});
    EXPECT_EQ(r0.bytes, Bytes{128});

    // Index 5 -> byte 640 -> sector 1, offset 128.
    const EvReadRequest r5 = tr.translate(TableId{}, EvIndex{5});
    EXPECT_EQ(r5.lba, Lba{1001});
    EXPECT_EQ(r5.byteInSector, Bytes{128});
}

TEST(EvTranslator, MultiExtentBoundaries)
{
    EvTranslator tr(kSectorSize);
    ftl::ExtentList extents;
    // vectors 0..31 (128 B each), then 32..63
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    extents.append(ftl::Extent{Lba{1000}, Sectors{8}});
    tr.registerTable(TableId{}, extents, Bytes{128}, 64);

    const TableId t0{};
    EXPECT_EQ(tr.translate(t0, EvIndex{31}).lba, Lba{7});
    EXPECT_EQ(tr.translate(t0, EvIndex{31}).byteInSector, Bytes{384});
    EXPECT_EQ(tr.translate(t0, EvIndex{32}).lba, Lba{1000});
    EXPECT_EQ(tr.translate(t0, EvIndex{32}).byteInSector, Bytes{});
    EXPECT_EQ(tr.translate(t0, EvIndex{63}).lba, Lba{1007});
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
    EvTranslator tr(kSectorSize);
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
        const EvReadRequest req =
            tr.translate(TableId{}, EvIndex{idx});
        const auto loc =
            extents.locateByte(Bytes{idx * evBytes}, kSectorSize);
        EXPECT_EQ(req.lba, loc.lba);
        EXPECT_EQ(req.byteInSector, loc.byteInSector);
        EXPECT_EQ(req.bytes, Bytes{evBytes});
    }
}

INSTANTIATE_TEST_SUITE_P(SweepEvSizes, TranslatorProperty,
                         ::testing::Values(64u, 128u, 256u, 512u));

TEST(EvTranslator, MultipleTables)
{
    EvTranslator tr(kSectorSize);
    ftl::ExtentList a;
    a.append(ftl::Extent{Lba{}, Sectors{8}});
    ftl::ExtentList b;
    b.append(ftl::Extent{Lba{100}, Sectors{8}});
    tr.registerTable(TableId{}, a, Bytes{128}, 32);
    tr.registerTable(TableId{1}, b, Bytes{256}, 16);
    EXPECT_EQ(tr.numTables(), 2u);
    EXPECT_EQ(tr.vectorBytes(TableId{}), Bytes{128});
    EXPECT_EQ(tr.vectorBytes(TableId{1}), Bytes{256});
    EXPECT_EQ(tr.translate(TableId{1}, EvIndex{}).lba, Lba{100});
}

TEST(EvTranslator, MetadataScanIsWidestTable)
{
    EvTranslator tr(kSectorSize);
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
    EvTranslator tr(kSectorSize);
    EXPECT_EXIT(tr.translate(TableId{5}, EvIndex{}),
                ::testing::ExitedWithCode(1), "not registered");
}

TEST(EvTranslator, OutOfRangeIndexDies)
{
    EvTranslator tr(kSectorSize);
    ftl::ExtentList extents;
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    tr.registerTable(TableId{}, extents, Bytes{128}, 32);
    EXPECT_DEATH(tr.translate(TableId{}, EvIndex{32}),
                 "out of range");
}

TEST(EvTranslator, UndersizedExtentsAreFatal)
{
    EvTranslator tr(kSectorSize);
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
    EvTranslator tr(kSectorSize);
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
        const auto loc = extents.locateByte(Bytes{idx * 96}, kSectorSize);
        EXPECT_EQ(req.lba, loc.lba) << "index " << idx;
        EXPECT_EQ(req.byteInSector, loc.byteInSector) << "index " << idx;
        EXPECT_EQ(req.bytes, Bytes{96});
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
    EvTranslator tr(kSectorSize);
    ftl::ExtentList extents;
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    tr.registerTable(TableId{2}, extents, Bytes{128}, 32);
    EXPECT_EXIT(tr.translate(TableId{1}, EvIndex{}),
                ::testing::ExitedWithCode(1), "table 1 is not registered");
}

TEST(EvTranslatorDeathTest, IndexPastTheLastExtentDies)
{
    EvTranslator tr(kSectorSize);
    ftl::ExtentList extents;
    extents.append(ftl::Extent{Lba{}, Sectors{8}});
    extents.append(ftl::Extent{Lba{1000}, Sectors{8}});
    tr.registerTable(TableId{}, extents, Bytes{128}, 64);
    EXPECT_DEATH(tr.translate(TableId{}, EvIndex{64}), "out of range");

    // Rows that stop short of a one-extent table's end are still
    // bounded by the row count.
    EvTranslator shortTable(kSectorSize);
    ftl::ExtentList one;
    one.append(ftl::Extent{Lba{}, Sectors{8}});
    shortTable.registerTable(TableId{}, one, Bytes{128}, 20);
    EXPECT_DEATH(shortTable.translate(TableId{}, EvIndex{20}),
                 "out of range");
}

} // namespace
} // namespace rmssd::engine
