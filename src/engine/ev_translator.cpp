#include "engine/ev_translator.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::engine {

EvTranslator::EvTranslator(Bytes sectorSize, Bytes pageSize)
    : sectorSize_(sectorSize), page_(pageSize.raw())
{
    RMSSD_ASSERT(sectorSize_ > Bytes{}, "zero sector size");
}

void
EvTranslator::registerTable(TableId tableId,
                            const ftl::ExtentList &extents,
                            Bytes evBytes, std::uint64_t numRows)
{
    RMSSD_ASSERT(evBytes > Bytes{}, "zero EV size");
    if (tableId.raw() >= tables_.size())
        tables_.resize(tableId.raw() + 1);

    TableMeta meta;
    meta.evBytes = evBytes;
    meta.numRows = numRows;
    meta.ranges.reserve(extents.extents().size());
    std::uint64_t nextIndex = 0;
    for (const ftl::Extent &e : extents.extents()) {
        const Bytes extentBytes{e.sectorCount.raw() * sectorSize_.raw()};
        RMSSD_ASSERT(extentBytes.raw() % evBytes.raw() == 0,
                     "extent does not hold whole vectors");
        const std::uint64_t vectors = extentBytes / evBytes;
        meta.ranges.push_back(ExtentRange{EvIndex{nextIndex},
                                          EvIndex{nextIndex + vectors},
                                          Bytes{e.startLba.raw() *
                                                sectorSize_.raw()}});
        nextIndex += vectors;
    }
    if (nextIndex < numRows)
        fatal("table %u extents cover %llu rows but table has %llu",
              tableId.raw(), static_cast<unsigned long long>(nextIndex),
              static_cast<unsigned long long>(numRows));
    tables_[tableId.raw()] = std::move(meta);
}

std::uint32_t
EvTranslator::numTables() const
{
    std::uint32_t n = 0;
    for (const auto &t : tables_) {
        if (t.evBytes != Bytes{})
            ++n;
    }
    return n;
}

void
EvTranslator::unknownTable(TableId tableId)
{
    fatal("embedding table %u is not registered", tableId.raw());
}

Cycle
EvTranslator::metadataScanCycles() const
{
    std::uint64_t widest = 0;
    for (const auto &t : tables_)
        widest = std::max<std::uint64_t>(widest, t.ranges.size());
    return Cycle{widest};
}

Bytes
EvTranslator::vectorBytes(TableId tableId) const
{
    return meta(tableId).evBytes;
}

} // namespace rmssd::engine
