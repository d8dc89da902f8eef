/**
 * @file
 * File extents: contiguous LBA ranges backing an embedding table.
 *
 * After RM_create_table the host retrieves the table file's extents
 * and pushes (start LBA, length) pairs to the device, where the EV
 * Translator keeps per-extent index ranges (Fig. 6). The extent
 * allocator here stands in for the host file system's block allocator.
 *
 * All positions and lengths are strongly typed (sim/strong_types.h):
 * Lba is a sector position, Sectors a sector count, Bytes a byte
 * offset or length — handing a byte offset to an LBA parameter does
 * not compile.
 */

#ifndef RMSSD_FTL_EXTENT_H
#define RMSSD_FTL_EXTENT_H

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace rmssd::ftl {

/** One contiguous run of logical sectors. */
struct Extent
{
    Lba startLba;
    Sectors sectorCount;

    bool operator==(const Extent &) const = default;
};

/** Ordered extents of one file plus offset-location helpers. */
class ExtentList
{
  public:
    ExtentList() = default;
    explicit ExtentList(std::vector<Extent> extents);

    void append(const Extent &extent);

    const std::vector<Extent> &extents() const { return extents_; }
    /** reachability: test-observer — ExtentList.LocatesBytesAcrossExtents. */
    Sectors totalSectors() const { return totalSectors_; }
    Bytes totalBytes(Bytes sectorSize) const;
    bool empty() const { return extents_.empty(); }

    /** Result of locating a byte offset within the file. */
    struct Location
    {
        std::uint32_t extentIndex = 0;
        Lba lba;          //!< sector holding the byte
        Bytes byteInSector; //!< offset inside that sector
    };

    /**
     * Map a logical byte offset of the file to its LBA. @p sectorSize
     * is the LBA granularity. Calls fatal() past end of file.
     */
    Location locateByte(Bytes byteOffset, Bytes sectorSize) const;

  private:
    std::vector<Extent> extents_;
    Sectors totalSectors_;
};

/**
 * Sequential-fit extent allocator over the device's logical space.
 * @p maxFragmentSectors > 0 splits allocations into multiple extents
 * of at most that size, exercising the multi-extent translator path.
 */
class ExtentAllocator
{
  public:
    explicit ExtentAllocator(Sectors totalSectors,
                             Sectors maxFragmentSectors = Sectors{});

    /**
     * Allocate @p sectors sectors, page-aligned to @p sectorsPerPage.
     * @return the extents of the new file.
     */
    ExtentList allocate(Sectors sectors, std::uint32_t sectorsPerPage);

  private:
    Sectors totalSectors_;
    Sectors maxFragmentSectors_;
    Lba nextLba_;
};

} // namespace rmssd::ftl

#endif // RMSSD_FTL_EXTENT_H
