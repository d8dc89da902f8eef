#include "host/host_system.h"

#include <algorithm>
#include <vector>

#include "sim/log.h"

namespace rmssd::host {

HostFileReader::HostFileReader(nvme::NvmeController &nvme,
                               std::uint64_t cachePages,
                               const IoStackCosts &costs)
    : nvme_(nvme), cache_(cachePages), costs_(costs)
{
}

IoCost
HostFileReader::readVector(std::uint32_t fileId,
                           const ftl::ExtentList &extents,
                           Bytes byteOffset, Bytes bytes, Nanos now,
                           std::span<std::uint8_t> out)
{
    const std::uint32_t pageSize = nvme_.ftl().pageSize();
    const Bytes sectorSize{nvme_.ftl().sectorSize()};
    const std::uint32_t sectorsPerPage =
        pageSize / nvme_.ftl().sectorSize();
    RMSSD_ASSERT(byteOffset.raw() % pageSize + bytes.raw() <= pageSize,
                 "host vector read straddles a cache page");

    IoCost cost;
    cost.fsNanos += costs_.syscallNanos;

    const PageKey key{fileId, byteOffset.raw() / pageSize};
    if (cache_.access(key)) {
        cost.fsNanos += costs_.hitCopyNanos;
        if (!out.empty()) {
            // Functionally, a hit returns the same bytes the device
            // would: fetch without timing or traffic accounting.
            const auto loc = extents.locateByte(byteOffset, sectorSize);
            ftl::Ftl &ftl = nvme_.ftl();
            const ftl::Ftl::PageLoc page =
                ftl.locate(loc.lba, loc.byteInSector);
            const std::span<const std::uint8_t> data =
                ftl.readVector(Cycle{}, page.lpn, page.byteInPage,
                               ftl.array().vectorTransfer(bytes), out)
                    .data;
            if (data.data() != out.data())
                std::copy(data.begin(), data.end(), out.begin());
            // The probe above used the EV path counters; undo timing
            // side effects by charging nothing to the host. (Flash
            // timing state is monotonic but idle-time dominated; the
            // functional read costs at most one bus slot.)
        }
        return cost;
    }

    // Miss: fill the whole 4 KB page through the block path.
    const Bytes pageStartByte{byteOffset.raw() / pageSize * pageSize};
    const auto loc = extents.locateByte(pageStartByte, sectorSize);
    const Cycle issue = nanosToCycles(now + costs_.syscallNanos);

    std::vector<std::uint8_t> pageBuf;
    std::span<std::uint8_t> pageSpan;
    if (!out.empty()) {
        pageBuf.resize(pageSize);
        pageSpan = pageBuf;
    }
    const Cycle done = nvme_.readBlocks(issue, loc.lba,
                                        Sectors{sectorsPerPage},
                                        pageSpan);
    deviceBytes_.inc(pageSize);

    const Nanos deviceNanos = cyclesToNanos(done - issue);
    cost.ssdNanos += deviceNanos;
    cost.fsNanos += costs_.missKernelNanos;

    if (!out.empty()) {
        const std::uint32_t inPage = static_cast<std::uint32_t>(
            (byteOffset - pageStartByte).raw());
        std::copy_n(pageBuf.begin() + inPage, bytes.raw(),
                    out.begin());
    }
    return cost;
}

void
HostFileReader::resetStats()
{
    cache_.resetStats();
    deviceBytes_.reset();
}

} // namespace rmssd::host
