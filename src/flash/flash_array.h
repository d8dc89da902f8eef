/**
 * @file
 * The full flash array: geometry + per-channel FMCs + functional
 * backing store. This is the device substrate everything above (FTL,
 * NVMe block path, embedding lookup engine) reads from.
 *
 * Reads are both timed (die flush + channel bus contention) and
 * functional (bytes come from the sparse backing store). A page read
 * copies into its output span; a vector read hands back a view into
 * the stored page, as the EV-FMC moves only EVsize bytes off the page
 * buffer. Passing an empty span makes either read timing-only.
 */

#ifndef RMSSD_FLASH_FLASH_ARRAY_H
#define RMSSD_FLASH_FLASH_ARRAY_H

#include <cstdint>
#include <span>
#include <vector>

#include "flash/backing_store.h"
#include "flash/fmc.h"
#include "flash/geometry.h"
#include "flash/timing.h"
#include "sim/divider.h"
#include "sim/log.h"
#include "sim/types.h"

namespace rmssd::flash {

/** A timed vector read and, when functional, the bytes it read. */
struct VectorRead : ReadTiming
{
    /**
     * A view into the stored page, or into the caller's scratch when
     * the page was never written (the scratch then holds the filler);
     * empty when timing-only. Valid until the page is written or
     * the scratch is reused.
     */
    std::span<const std::uint8_t> data;
};

/** Complete multi-channel flash device. */
class FlashArray
{
  public:
    FlashArray(const Geometry &geometry, const NandTiming &timing);

    const Geometry &geometry() const { return geometry_; }
    const NandTiming &timing() const { return timing_; }

    /**
     * Timed + functional whole-page read.
     * @param issue cycle the request reaches the FMC
     * @param ppn flat physical page number
     * @param out page-sized destination, or empty for timing-only
     * @return read timing (flushDone, done)
     */
    ReadTiming readPage(Cycle issue, PageId ppn,
                        std::span<std::uint8_t> out);

    /** The bus share of a @p bytes vector read (Fmc::vectorTransfer). */
    VectorTransfer
    vectorTransfer(Bytes bytes) const
    {
        return fmcs_.front().vectorTransfer(bytes);
    }

    /**
     * Timed vector-grained read of @p xfer's bytes at @p colOffset.
     * The page's lane is one mod (channels x dies) away: Geometry
     * stripes consecutive pages over channels first, then dies, so
     * ppn mod (C x D) names the (channel, die) pair and the plane,
     * block and page fields are never needed.
     */
    ReadTiming
    readVector(Cycle issue, PageId ppn, Bytes colOffset,
               const VectorTransfer &xfer)
    {
        RMSSD_ASSERT(ppn.raw() < totalPages_, "ppn out of range");
        RMSSD_ASSERT(colOffset + xfer.bytes <= geometry_.pageSizeBytes,
                     "vector read crosses page boundary");
        const Lane lane = lanes_[laneOf_.mod(ppn.raw())];
        return fmcs_[lane.channel].readVector(issue, lane.die, xfer);
    }

    /**
     * The timed read above, read in place as well.
     * @param scratch empty for timing-only; otherwise exactly
     *        xfer.bytes long, and it receives the filler when @p ppn
     *        was never written
     */
    VectorRead readVector(Cycle issue, PageId ppn, Bytes colOffset,
                          const VectorTransfer &xfer,
                          std::span<std::uint8_t> scratch);

    /** Timed + functional page program (used when loading tables). */
    Cycle programPage(Cycle issue, PageId ppn,
                      std::span<const std::uint8_t> data);

    /** Functional-only sub-page write. */
    void writePartialFunctional(PageId ppn, Bytes offset,
                                std::span<const std::uint8_t> data);

    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }

    Fmc &fmc(std::uint32_t channel) { return fmcs_[channel]; }
    const Fmc &fmc(std::uint32_t channel) const { return fmcs_[channel]; }

    /** Aggregate counters across channels. */
    std::uint64_t totalPageReads() const;
    std::uint64_t totalVectorReads() const;
    std::uint64_t totalBusBytes() const;
    std::uint64_t totalPagePrograms() const;

    /** Forget all timing state (counters preserved). */
    void resetTiming();

    /** Reset timing and counters. */
    void resetAll();

  private:
    /** The (channel, die) pair a page stripes onto. */
    struct Lane
    {
        std::uint32_t channel;
        std::uint32_t die;
    };

    Geometry geometry_;
    NandTiming timing_;
    /** geometry_.totalPages(), fixed at construction. */
    std::uint64_t totalPages_;
    BackingStore store_;
    std::vector<Fmc> fmcs_;
    /** ppn mod (channels x dies), the index into lanes_. */
    Divider laneOf_;
    /** Lane l is (l mod C, l / C): Geometry::decompose's striping. */
    std::vector<Lane> lanes_;
};

} // namespace rmssd::flash

#endif // RMSSD_FLASH_FLASH_ARRAY_H
