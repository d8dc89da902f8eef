/**
 * @file
 * Flash translation layer: LBA-space reads/writes on top of the flash
 * array, shared between the conventional block-I/O path and the
 * embedding-vector path (Fig. 5's MUX).
 *
 * The MUX of the paper round-robins block and EV requests into the
 * shared FTL; with one request source active at a time (our
 * experiments) this reduces to a fixed pipelined translation latency,
 * which we charge per request.
 */

#ifndef RMSSD_FTL_FTL_H
#define RMSSD_FTL_FTL_H

#include <cstdint>
#include <memory>
#include <span>

#include "flash/flash_array.h"
#include "ftl/mapping.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::ftl {

/** FTL over a flash array with a pluggable mapping. */
class Ftl
{
  public:
    /** Cycles for one pipelined address translation. */
    static constexpr Cycle kTranslateCycles{4};

    Ftl(flash::FlashArray &array, std::unique_ptr<Mapping> mapping);

    /** Build with the paper's linear mapping. */
    static Ftl makeLinear(flash::FlashArray &array);

    std::uint32_t sectorsPerPage() const { return sectorsPerPage_; }
    std::uint32_t sectorSize() const { return sectorSize_; }
    std::uint32_t pageSize() const { return pageSize_; }

    /** Logical location of a byte: its logical page and offset. */
    struct PageLoc
    {
        PageId lpn;
        Bytes byteInPage;
    };

    /** The logical page and page offset of (lba, intra-sector offset). */
    PageLoc locate(Lba lba, Bytes byteInSector = Bytes{}) const;

    /** Physical location of a logical byte address. */
    struct PhysLoc
    {
        PageId ppn;
        Bytes pageByteOffset;
    };

    /** Translate (lba, intra-sector byte offset) to a physical page. */
    PhysLoc translate(Lba lba, Bytes byteInSector = Bytes{}) const;

    /**
     * Timed whole-page-aligned block read of @p sectors sectors from
     * @p lba. @p out receives the bytes (may be empty = timing only).
     * @return completion cycle of the last page.
     */
    Cycle readSectors(Cycle issue, Lba lba, Sectors sectors,
                      std::span<std::uint8_t> out);

    /**
     * Timed vector-grained read of @p xfer's bytes at byte
     * @p byteInPage of logical page @p lpn: the EV path, addressed
     * the way the EV translator emits it. Must not cross a page.
     * @param xfer the read's bus share (FlashArray::vectorTransfer)
     * @return completion cycle
     */
    Cycle
    readVector(Cycle issue, PageId lpn, Bytes byteInPage,
               const flash::VectorTransfer &xfer)
    {
        return array_
            .readVector(issue + kTranslateCycles,
                        locateEvRead(lpn, byteInPage, xfer.bytes),
                        byteInPage, xfer)
            .done;
    }

    /**
     * The timed read above, read in place as well, as
     * flash::FlashArray::readVector: @p scratch is empty for
     * timing-only, else exactly xfer.bytes long.
     * @return completion cycles and a view of the bytes read
     */
    flash::VectorRead readVector(Cycle issue, PageId lpn,
                                 Bytes byteInPage,
                                 const flash::VectorTransfer &xfer,
                                 std::span<std::uint8_t> scratch);

    /** Functional write of arbitrary bytes at a logical byte address. */
    void writeBytesFunctional(Lba lba, Bytes byteInSector,
                              std::span<const std::uint8_t> data);

    /** Requests that entered the shared MUX, per source (Fig. 5). */
    const Counter &blockRequests() const { return blockRequests_; }
    const Counter &evRequests() const { return evRequests_; }

    flash::FlashArray &array() { return array_; }

    /** The mapping behind this FTL (placement planners re-shape it). */
    Mapping &mapping() { return *mapping_; }
    const Mapping &mapping() const { return *mapping_; }

  private:
    /**
     * Physical page of an EV read (the mapping sees the read, for its
     * heat signal) after recording it on the EV path. One mapping call
     * per read: it translates the page and feeds a frequency-aware
     * mapping its online heat signal, keyed by the logical page so
     * heat follows the data through relocations.
     */
    PageId
    locateEvRead(PageId lpn, Bytes byteInPage, Bytes bytes)
    {
        evRequests_.inc();
        const PageId ppn = mapping_->readPage(lpn);
        RMSSD_ASSERT((byteInPage + bytes).raw() <= pageSize_,
                     "EV read crosses flash page boundary");
        return ppn;
    }

    flash::FlashArray &array_;
    std::unique_ptr<Mapping> mapping_;
    // Geometry constants, fixed at construction.
    std::uint32_t sectorsPerPage_;
    std::uint32_t sectorSize_;
    std::uint32_t pageSize_;

    Counter blockRequests_;
    Counter evRequests_;
};

} // namespace rmssd::ftl

#endif // RMSSD_FTL_FTL_H
