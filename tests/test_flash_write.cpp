/**
 * @file
 * Tests for the flash write/erase path: program timing, block erase
 * semantics, wear accounting, and RM-SSD's timed table provisioning.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "engine/rm_ssd.h"
#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/ftl.h"
#include "model/model_zoo.h"

namespace rmssd::flash {
namespace {

TEST(FlashWrite, ProgramChargesBusThenCellArray)
{
    const NandTiming t = tableIITiming();
    FlashArray array(tableIIGeometry(), tableIITiming());
    std::vector<std::uint8_t> page(4096, 0xAA);
    const Cycle done = array.programPage(Cycle{}, PageId{}, page);
    EXPECT_EQ(done,
              t.transferCycles(Bytes{4096}) + t.pageProgramCycles);
    EXPECT_EQ(array.totalPagePrograms(), 1u);
}

TEST(FlashWrite, EmptySpanProgramsTimingOnly)
{
    FlashArray array(tableIIGeometry(), tableIITiming());
    array.programPage(Cycle{}, PageId{5}, {});
    EXPECT_EQ(array.store().materializedPages(), 0u);
    EXPECT_EQ(array.totalPagePrograms(), 1u);
}

TEST(FlashWrite, ProgramsToOneDieSerialize)
{
    const NandTiming t = tableIITiming();
    FlashArray array(tableIIGeometry(), tableIITiming());
    // ppn 0 and ppn = numChannels*diesPerChannel land on the same
    // channel 0 / die 0.
    const PageId samePpn{4ull * 4ull};
    const Cycle a = array.programPage(Cycle{}, PageId{}, {});
    const Cycle b = array.programPage(Cycle{}, samePpn, {});
    EXPECT_GE(b, a + t.pageProgramCycles);
}

} // namespace
} // namespace rmssd::flash

namespace rmssd::engine {
namespace {

/** A float's bit pattern: device outputs equal the reference bit for bit. */
std::uint32_t
bits(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

TEST(TimedLoad, ProvisioningIsTimedAndFunctional)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 4;

    RmSsdOptions opt;
    opt.functional = true;
    RmSsd dev(cfg, opt);
    const Cycle done = dev.loadTablesTimed();

    // 8 tables x 512 rows x 128 B = 512 KB = 128 pages programmed.
    EXPECT_EQ(dev.flash().totalPagePrograms(), 128u);
    // Loading takes at least one bus transfer + program per die chain
    // (programs overlap across 16 dies).
    EXPECT_GE(done,
              dev.flash().timing().pageProgramCycles * 128 / 16);

    // The freshly provisioned device serves correct inferences.
    std::vector<model::Sample> batch{dev.model().makeSample(5)};
    const auto out = dev.infer(batch);
    EXPECT_EQ(bits(out.outputs[0]),
              bits(dev.model().referenceInference(batch[0])));
}

TEST(TimedLoad, TimingOnlyLoadDoesNotMaterializePages)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(4096);

    RmSsdOptions opt; // not functional
    RmSsd dev(cfg, opt);
    dev.loadTablesTimed();
    EXPECT_EQ(dev.flash().store().materializedPages(), 0u);
    EXPECT_GT(dev.flash().totalPagePrograms(), 0u);
}

/** Page content keyed by physical page number. */
using PageMap = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/**
 * The row-at-a-time table loader the page composer replaced: one FTL
 * write per row at the row's byte offset, where the first write to a
 * page fills all of it with the page's filler and then copies the row
 * in. Returns what every page it touched holds afterwards.
 */
PageMap
rowAtATimePages(const model::ModelConfig &cfg, const RmSsdOptions &opt)
{
    const flash::Geometry &g = opt.geometry;
    const Bytes sectorSize = g.sectorSizeBytes;
    flash::FlashArray array(g, opt.timing);
    ftl::Ftl ftl = ftl::Ftl::makeLinear(array);
    const flash::BackingStore filler(g.pageSizeBytes); // never written
    ftl::ExtentAllocator allocator(
        Sectors{g.capacityBytes() / sectorSize.raw()},
        opt.maxExtentSectors);
    const model::DlrmModel model(cfg, model::Weights::ShapesOnly);

    PageMap pages;
    for (const model::EmbeddingTableSpec &spec :
         model.embedding().tables()) {
        const ftl::ExtentList extents = allocator.allocate(
            Sectors{(spec.totalBytes() + sectorSize.raw() - 1) /
                    sectorSize.raw()},
            g.sectorsPerPage());
        std::vector<std::uint8_t> row(spec.vectorBytes());
        for (std::uint64_t r = 0; r < spec.numRows; ++r) {
            // The scalar formula, not the device's multi-row load.
            const model::Vector values = spec.row(r);
            std::memcpy(row.data(), values.data(), row.size());
            const auto loc = extents.locateByte(
                Bytes{r * spec.vectorBytes()}, sectorSize);
            const ftl::Ftl::PhysLoc phys =
                ftl.translate(loc.lba, loc.byteInSector);
            auto [it, created] = pages.try_emplace(phys.ppn.raw());
            if (created) {
                it->second.resize(g.pageSizeBytes.raw());
                filler.read(phys.ppn, Bytes{}, it->second);
            }
            std::copy(row.begin(), row.end(),
                      it->second.begin() +
                          static_cast<std::ptrdiff_t>(
                              phys.pageByteOffset.raw()));
        }
    }
    return pages;
}

/** Every materialized page of @p dev equals @p want byte for byte. */
void
expectPages(const RmSsd &dev, const PageMap &want)
{
    const flash::BackingStore &store = dev.flash().store();
    EXPECT_EQ(store.materializedPages(), want.size());
    std::vector<std::uint8_t> got(store.pageSizeBytes().raw());
    for (const auto &[ppn, bytes] : want) {
        store.read(PageId{ppn}, Bytes{}, got);
        EXPECT_EQ(got, bytes) << "page " << ppn;
    }
}

TEST(TableLoaders, PageComposerEqualsRowAtATimeLoader)
{
    // 500 rows of 128 B: 15 full pages and a last page holding 20
    // rows and a filler tail; 24-sector extents split every table
    // into six. 77 rows of 256 B: four full pages and a fifth holding
    // 13 rows, in one extent.
    model::ModelConfig multiExtent = model::rmc1();
    multiExtent.withRowsPerTable(500);
    model::ModelConfig wide = model::rmc1();
    wide.embDim = 64;
    wide.numTables = 3;
    wide.withRowsPerTable(77);
    for (const bool fragmented : {true, false}) {
        const model::ModelConfig &cfg = fragmented ? multiExtent : wide;
        RmSsdOptions opt;
        opt.functional = true;
        if (fragmented)
            opt.maxExtentSectors = Sectors{24};
        const PageMap want = rowAtATimePages(cfg, opt);

        RmSsd untimed(cfg, opt);
        untimed.loadTables();
        expectPages(untimed, want);

        RmSsd timed(cfg, opt);
        timed.loadTablesTimed();
        expectPages(timed, want);
        EXPECT_EQ(timed.flash().totalPagePrograms(), want.size());
    }
}

TEST(DeviceStats, RegistryCollectsCounters)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 4;

    RmSsdOptions opt;
    RmSsd dev(cfg, opt);
    dev.loadTables();
    std::vector<model::Sample> batch{dev.model().makeSample(0)};
    dev.infer(batch);

    StatsRegistry registry;
    dev.registerStats(registry, "dev");
    EXPECT_EQ(registry.counterValue("dev.inferences"), 1u);
    EXPECT_EQ(registry.counterValue("dev.emb.lookups"),
              cfg.lookupsPerSample());
    // All channels are registered; their reads sum to the lookups.
    std::uint64_t channelReads = 0;
    for (int c = 0; c < 4; ++c) {
        channelReads += registry.counterValue(
            "dev.flash.ch" + std::to_string(c) + ".vectorReads");
    }
    EXPECT_EQ(channelReads, cfg.lookupsPerSample());

    std::ostringstream os;
    registry.dump(os);
    EXPECT_NE(os.str().find("dev.dma.bytes"), std::string::npos);
}

} // namespace
} // namespace rmssd::engine
