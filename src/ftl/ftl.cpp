#include "ftl/ftl.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::ftl {

Ftl::Ftl(flash::FlashArray &array, std::unique_ptr<Mapping> mapping)
    : array_(array), mapping_(std::move(mapping)),
      sectorsPerPage_(array.geometry().sectorsPerPage()),
      sectorSize_(static_cast<std::uint32_t>(
          array.geometry().sectorSizeBytes.raw())),
      pageSize_(static_cast<std::uint32_t>(
          array.geometry().pageSizeBytes.raw()))
{
    RMSSD_ASSERT(mapping_ != nullptr, "FTL without a mapping");
}

Ftl
Ftl::makeLinear(flash::FlashArray &array)
{
    return Ftl(array, std::make_unique<LinearMapping>(
                          array.geometry().totalPages()));
}

Ftl::PageLoc
Ftl::locate(Lba lba, Bytes byteInSector) const
{
    const PageId lpn{lba.raw() / sectorsPerPage_};
    const std::uint64_t sectorInPage =
        lba.raw() - lpn.raw() * sectorsPerPage_;
    return PageLoc{lpn, Bytes{sectorInPage * sectorSize_} + byteInSector};
}

Ftl::PhysLoc
Ftl::translate(Lba lba, Bytes byteInSector) const
{
    const PageLoc loc = locate(lba, byteInSector);
    return PhysLoc{mapping_->translate(loc.lpn), loc.byteInPage};
}

Cycle
Ftl::readSectors(Cycle issue, Lba lba, Sectors sectors,
                 std::span<std::uint8_t> out)
{
    RMSSD_ASSERT(sectors > Sectors{}, "zero-sector read");
    blockRequests_.inc();

    if (!out.empty()) {
        RMSSD_ASSERT(out.size() ==
                         static_cast<std::size_t>(sectors.raw()) *
                             sectorSize_,
                     "block read buffer size mismatch");
    }

    // Page-granular device: every touched page is read in full.
    Cycle done = issue;
    Lba sector = lba;
    std::uint64_t remaining = sectors.raw();
    std::size_t outPos = 0;
    std::vector<std::uint8_t> pageBuf;
    while (remaining > 0) {
        const PageId lpn{sector.raw() / sectorsPerPage_};
        const std::uint32_t first =
            static_cast<std::uint32_t>(sector.raw() % sectorsPerPage_);
        const std::uint32_t inPage = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, sectorsPerPage_ - first));

        const PageId ppn = mapping_->translate(lpn);
        const Cycle reqIssue = issue + kTranslateCycles;
        if (out.empty()) {
            done = std::max(
                done, array_.readPage(reqIssue, ppn, {}).done);
        } else {
            pageBuf.resize(pageSize_);
            done = std::max(
                done, array_.readPage(reqIssue, ppn, pageBuf).done);
            std::copy_n(pageBuf.begin() +
                            static_cast<std::ptrdiff_t>(first * sectorSize_),
                        static_cast<std::size_t>(inPage) * sectorSize_,
                        out.begin() +
                            static_cast<std::ptrdiff_t>(outPos));
            outPos += static_cast<std::size_t>(inPage) * sectorSize_;
        }
        sector = sector + Sectors{inPage};
        remaining -= inPage;
    }
    return done;
}

flash::VectorRead
Ftl::readVector(Cycle issue, PageId lpn, Bytes byteInPage,
                const flash::VectorTransfer &xfer,
                std::span<std::uint8_t> scratch)
{
    return array_.readVector(issue + kTranslateCycles,
                             locateEvRead(lpn, byteInPage, xfer.bytes),
                             byteInPage, xfer, scratch);
}

void
Ftl::writeBytesFunctional(Lba lba, Bytes byteInSector,
                          std::span<const std::uint8_t> data)
{
    Bytes byteAddr = Bytes{lba.raw() * sectorSize_} + byteInSector;
    std::size_t pos = 0;
    while (pos < data.size()) {
        const PageId lpn{byteAddr.raw() / pageSize_};
        const Bytes inPageOff = byteAddr % pageSize_;
        const std::size_t chunk = std::min<std::size_t>(
            data.size() - pos, pageSize_ - inPageOff.raw());
        const PageId ppn = mapping_->assignForWrite(lpn);
        array_.writePartialFunctional(
            ppn, inPageOff, data.subspan(pos, chunk));
        byteAddr += Bytes{chunk};
        pos += chunk;
    }
}

} // namespace rmssd::ftl
