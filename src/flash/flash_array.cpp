#include "flash/flash_array.h"

#include "sim/log.h"

namespace rmssd::flash {

FlashArray::FlashArray(const Geometry &geometry, const NandTiming &timing)
    // Validated first: the FMCs and the lane divisor need no zero.
    : geometry_((geometry.validate(), geometry)), timing_(timing),
      totalPages_(geometry.totalPages()), store_(geometry.pageSizeBytes),
      laneOf_(std::uint64_t{geometry.numChannels} *
              geometry.diesPerChannel),
      lanes_(laneOf_.divisor())
{
    if (timing_.pageSizeBytes != geometry_.pageSizeBytes)
        fatal("NAND timing page size differs from geometry page size");
    fmcs_.reserve(geometry_.numChannels);
    for (std::uint32_t c = 0; c < geometry_.numChannels; ++c)
        fmcs_.emplace_back(geometry_.diesPerChannel, timing_);
    auto lane = lanes_.begin();
    for (std::uint32_t die = 0; die < geometry_.diesPerChannel; ++die) {
        for (std::uint32_t c = 0; c < geometry_.numChannels; ++c)
            *lane++ = Lane{c, die};
    }
}

ReadTiming
FlashArray::readPage(Cycle issue, PageId ppn,
                     std::span<std::uint8_t> out)
{
    const Pba pba = geometry_.decompose(ppn);
    const ReadTiming t = fmcs_[pba.channel].readPage(issue, pba.die);
    if (!out.empty()) {
        RMSSD_ASSERT(out.size() == geometry_.pageSizeBytes.raw(),
                     "page read buffer is not page sized");
        store_.read(ppn, Bytes{}, out);
    }
    return t;
}

VectorRead
FlashArray::readVector(Cycle issue, PageId ppn, Bytes colOffset,
                       const VectorTransfer &xfer,
                       std::span<std::uint8_t> scratch)
{
    VectorRead read{readVector(issue, ppn, colOffset, xfer), {}};
    if (!scratch.empty()) {
        RMSSD_ASSERT(scratch.size() == xfer.bytes.raw(),
                     "vector read size mismatch");
        read.data = store_.view(ppn, colOffset, xfer.bytes, scratch);
    }
    return read;
}

Cycle
FlashArray::programPage(Cycle issue, PageId ppn,
                        std::span<const std::uint8_t> data)
{
    const Pba pba = geometry_.decompose(ppn);
    const Cycle done = fmcs_[pba.channel].programPage(issue, pba.die);
    // An empty span programs timing-only (bulk provisioning sweeps
    // would otherwise materialize the full device in host memory).
    if (!data.empty())
        store_.writePage(ppn, data);
    return done;
}

void
FlashArray::writePartialFunctional(PageId ppn, Bytes offset,
                                   std::span<const std::uint8_t> data)
{
    store_.writePartial(ppn, offset, data);
}

std::uint64_t
FlashArray::totalPageReads() const
{
    std::uint64_t n = 0;
    for (const auto &fmc : fmcs_)
        n += fmc.pageReads().value();
    return n;
}

std::uint64_t
FlashArray::totalVectorReads() const
{
    std::uint64_t n = 0;
    for (const auto &fmc : fmcs_)
        n += fmc.vectorReads().value();
    return n;
}

std::uint64_t
FlashArray::totalBusBytes() const
{
    std::uint64_t n = 0;
    for (const auto &fmc : fmcs_)
        n += fmc.busBytes().value();
    return n;
}

std::uint64_t
FlashArray::totalPagePrograms() const
{
    std::uint64_t n = 0;
    for (const auto &fmc : fmcs_)
        n += fmc.pagePrograms().value();
    return n;
}

void
FlashArray::resetTiming()
{
    for (auto &fmc : fmcs_)
        fmc.resetTiming();
}

void
FlashArray::resetAll()
{
    for (auto &fmc : fmcs_)
        fmc.resetAll();
}

} // namespace rmssd::flash
