/**
 * @file
 * Flash array geometry: channel/die/plane/block/page hierarchy and the
 * physical address type (Fig. 7 in the paper).
 *
 * The default geometry matches Table II of the paper: a 32 GB device
 * with 4 channels and 4 KB pages. Dies per channel is the knob that
 * sets die-level parallelism (calibrated to the paper's 45 K random-4K
 * IOPS figure).
 */

#ifndef RMSSD_FLASH_GEOMETRY_H
#define RMSSD_FLASH_GEOMETRY_H

#include <cstdint>

#include "sim/types.h"

namespace rmssd::flash {

/** Physical page address decomposed along the flash hierarchy. */
struct Pba
{
    std::uint32_t channel = 0;
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    bool operator==(const Pba &) const = default;
};

/** Static shape of the flash array. */
struct Geometry
{
    std::uint32_t numChannels = 4;
    std::uint32_t diesPerChannel = 4;
    std::uint32_t planesPerDie = 1;
    std::uint32_t blocksPerPlane = 1024;
    std::uint32_t pagesPerBlock = 512;
    Bytes pageSizeBytes{4096};
    Bytes sectorSizeBytes{512};

    /** Pages per die across all its planes/blocks. */
    std::uint64_t pagesPerDie() const;

    /** Total physical pages in the device. */
    std::uint64_t totalPages() const;

    /** Total device capacity in bytes (32 GB with the defaults). */
    std::uint64_t capacityBytes() const;

    /** Sectors (LBA units) per flash page. */
    std::uint32_t sectorsPerPage() const;

    /**
     * Decompose a flat physical page number into a Pba. Layout is
     * channel-interleaved then die-interleaved so consecutive pages
     * stripe across channels and dies — the paper's striping policy
     * for exploiting multi-level parallelism (Section IV-B2).
     */
    Pba decompose(PageId ppn) const;

    /** Validate the configuration; calls fatal() on nonsense. */
    void validate() const;
};

/** Geometry from Table II: 32 GB, 4 channels, 4 KB pages. */
Geometry tableIIGeometry();

} // namespace rmssd::flash

#endif // RMSSD_FLASH_GEOMETRY_H
