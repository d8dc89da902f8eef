#include "flash/geometry.h"

#include "sim/log.h"

namespace rmssd::flash {

std::uint64_t
Geometry::pagesPerDie() const
{
    return static_cast<std::uint64_t>(planesPerDie) * blocksPerPlane *
           pagesPerBlock;
}

std::uint64_t
Geometry::totalPages() const
{
    return pagesPerDie() * numChannels * diesPerChannel;
}

std::uint64_t
Geometry::capacityBytes() const
{
    return totalPages() * pageSizeBytes.raw();
}

std::uint32_t
Geometry::sectorsPerPage() const
{
    return static_cast<std::uint32_t>(pageSizeBytes /
                                      sectorSizeBytes);
}

Pba
Geometry::decompose(PageId page) const
{
    RMSSD_ASSERT(page.raw() < totalPages(), "ppn out of range");
    std::uint64_t ppn = page.raw();
    Pba pba;
    pba.channel = static_cast<std::uint32_t>(ppn % numChannels);
    ppn /= numChannels;
    pba.die = static_cast<std::uint32_t>(ppn % diesPerChannel);
    ppn /= diesPerChannel;
    pba.plane = static_cast<std::uint32_t>(ppn % planesPerDie);
    ppn /= planesPerDie;
    pba.page = static_cast<std::uint32_t>(ppn % pagesPerBlock);
    ppn /= pagesPerBlock;
    pba.block = static_cast<std::uint32_t>(ppn);
    return pba;
}

void
Geometry::validate() const
{
    if (numChannels == 0 || diesPerChannel == 0 || planesPerDie == 0 ||
        blocksPerPlane == 0 || pagesPerBlock == 0) {
        fatal("flash geometry has a zero dimension");
    }
    if (pageSizeBytes == Bytes{} || sectorSizeBytes == Bytes{} ||
        pageSizeBytes % sectorSizeBytes != Bytes{}) {
        fatal("flash page size %llu not a multiple of sector size %llu",
              static_cast<unsigned long long>(pageSizeBytes.raw()),
              static_cast<unsigned long long>(sectorSizeBytes.raw()));
    }
}

Geometry
tableIIGeometry()
{
    // 4 ch x 4 dies x 1 plane x 1024 blocks x 512 pages x 4 KB = 32 GB.
    return Geometry{};
}

} // namespace rmssd::flash
