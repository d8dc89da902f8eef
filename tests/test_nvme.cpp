/**
 * @file
 * Unit tests for the NVMe transport: block command latency (Table II's
 * 45 K IOPS calibration), the MMIO register file, and the DMA engine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "flash/flash_array.h"
#include "ftl/ftl.h"
#include "nvme/dma.h"
#include "nvme/mmio.h"
#include "nvme/nvme.h"

namespace rmssd::nvme {
namespace {

class NvmeFixture : public ::testing::Test
{
  protected:
    NvmeFixture()
        : array_(flash::tableIIGeometry(), flash::tableIITiming()),
          ftl_(ftl::Ftl::makeLinear(array_)), nvme_(ftl_)
    {
    }

    flash::FlashArray array_;
    ftl::Ftl ftl_;
    NvmeController nvme_;
};

TEST_F(NvmeFixture, Random4kIopsNearTableII)
{
    // Table II: 45 K IOPS random 4K reads.
    const double iops = nvme_.randomReadIops();
    EXPECT_GT(iops, 40000.0);
    EXPECT_LT(iops, 50000.0);
}

TEST_F(NvmeFixture, ReadLatencyIsProtocolPlusFlash)
{
    const Cycle done =
        nvme_.readBlocks(Cycle{}, Lba{}, Sectors{8}, {});
    EXPECT_EQ(done, nvme_.randomReadLatencyCycles());
    EXPECT_EQ(nvme_.hostBytesRead().value(), 4096u);
}

TEST_F(NvmeFixture, WriteThenReadReturnsData)
{
    std::vector<std::uint8_t> data(4096, 0xCD);
    nvme_.ftl().writeBytesFunctional(Lba{8}, Bytes{}, data);
    std::vector<std::uint8_t> out(4096);
    nvme_.readBlocks(Cycle{}, Lba{8}, Sectors{8}, out);
    EXPECT_EQ(out, data);
}

TEST(Mmio, WriteThenReadRoundTrips)
{
    MmioManager mmio;
    const Cycle wDone = mmio.write(Cycle{100}, 3, 0xDEAD);
    EXPECT_EQ(wDone, Cycle{100} + MmioManager::kWriteCycles);
    const auto r = mmio.read(wDone, 3);
    EXPECT_EQ(r.value, 0xDEADu);
    EXPECT_EQ(r.done, wDone + MmioManager::kReadCycles);
    EXPECT_EQ(mmio.hostBytesRead().value(),
              MmioManager::kDataWidthBytes.raw());
}

TEST(Mmio, PeekPokeAreFreeOfHostCost)
{
    MmioManager mmio;
    mmio.poke(7, 42);
    EXPECT_EQ(mmio.peek(7), 42u);
    EXPECT_EQ(mmio.peek(8), 0u); // unset registers read zero
    EXPECT_EQ(mmio.hostReads().value(), 0u);
    EXPECT_EQ(mmio.hostWrites().value(), 0u);
}

TEST(Mmio, DataWidthIs64Bytes)
{
    // Table IV: RM-SSD's per-inference return is one 64 B MMIO line.
    EXPECT_EQ(MmioManager::kDataWidthBytes, Bytes{64});
}

TEST(Dma, TransferCostIsSetupPlusBandwidth)
{
    DmaEngine dma;
    // 16 bytes/cycle, 200-cycle setup.
    EXPECT_EQ(dma.transferCycles(Bytes{1600}), Cycle{200 + 100});
    EXPECT_EQ(dma.transferCycles(Bytes{1}),
              Cycle{200 + 1}); // rounds up
}

TEST(Dma, BackToBackTransfersSerialize)
{
    DmaEngine dma;
    const Cycle a = dma.transfer(Cycle{}, Bytes{1600});
    const Cycle b = dma.transfer(Cycle{}, Bytes{1600});
    EXPECT_EQ(b, a + dma.transferCycles(Bytes{1600}));
    EXPECT_EQ(dma.bytesMoved().value(), 3200u);
    EXPECT_EQ(dma.transfers().value(), 2u);
}

TEST(Dma, IdleEngineStartsAtIssue)
{
    DmaEngine dma;
    const Cycle done = dma.transfer(Cycle{10'000}, Bytes{16});
    EXPECT_EQ(done, Cycle{10'000} + dma.transferCycles(Bytes{16}));
}

} // namespace
} // namespace rmssd::nvme
