/**
 * @file
 * Embedding Vector Translator (Fig. 6): device-resident per-table
 * extent metadata mapping embedding indices to flash pages.
 *
 * At RM_open_table time the host pushes each table's (start LBA,
 * length) extents through the RM Registers; the translator derives the
 * index range served by each extent (fixed EVsize per table) and keeps
 * it in on-device DRAM. A lookup then runs the five steps of Fig. 6:
 * fetch index, find the covering extent (parallel range check), take
 * the extent's start address, add the index offset, and emit a read of
 * exactly EVsize bytes at a (logical page, byte in page) the FTL maps
 * without dividing again.
 */

#ifndef RMSSD_ENGINE_EV_TRANSLATOR_H
#define RMSSD_ENGINE_EV_TRANSLATOR_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftl/extent.h"
#include "sim/divider.h"
#include "sim/log.h"
#include "sim/types.h"

namespace rmssd::engine {

/** A vector-grained flash read emitted by the translator. */
struct EvReadRequest
{
    PageId lpn;       //!< logical flash page holding the vector
    Bytes byteInPage; //!< the vector's first byte within that page
    Bytes bytes;
    TableId tableId;
};

/** Device-side index-to-LBA translation unit. */
class EvTranslator
{
  public:
    /** Pipelined issue rate: one translated index per cycle. */
    static constexpr Cycle kCyclesPerIndex{1};
    /** Depth of the translation pipeline (steps 2-5 of Fig. 6). */
    static constexpr Cycle kPipelineFillCycles{8};

    /**
     * @param sectorSize LBA granularity of the extents
     * @param pageSize flash page size the reads are addressed in
     */
    EvTranslator(Bytes sectorSize, Bytes pageSize);

    /**
     * Install a table's metadata (RM_open_table path).
     * @param evBytes size of one embedding vector in bytes
     */
    void registerTable(TableId tableId, const ftl::ExtentList &extents,
                       Bytes evBytes, std::uint64_t numRows);

    bool
    hasTable(TableId tableId) const
    {
        return tableId.raw() < tables_.size() &&
               tables_[tableId.raw()].evBytes != Bytes{};
    }

    std::uint32_t numTables() const;

    /** Fig. 6 steps 2-5 for one index. Fatal on unknown table/index. */
    EvReadRequest
    translate(TableId tableId, EvIndex index) const
    {
        const TableMeta &m = meta(tableId);
        RMSSD_ASSERT(index.raw() < m.numRows,
                     "embedding index out of range");

        // Step 3: find the covering extent. The hardware checks all
        // index ranges in parallel; ranges are sorted, so binary
        // search gives the same answer (and one extent needs none).
        auto it = m.ranges.begin();
        if (m.ranges.size() > 1) {
            it = std::upper_bound(m.ranges.begin(), m.ranges.end(), index,
                                  [](EvIndex idx, const ExtentRange &r) {
                                      return idx < r.lastIndex;
                                  });
        }
        RMSSD_ASSERT(it != m.ranges.end() && it->firstIndex <= index &&
                         index < it->lastIndex,
                     "no extent covers the index");

        // Steps 4-5: the extent's start address plus the index offset,
        // split into page and byte by one exact multiply (sim/divider.h).
        const Bytes address =
            it->startByte +
            Bytes{(index - it->firstIndex).raw() * m.evBytes.raw()};
        const PageId lpn{page_.div(address.raw())};
        EvReadRequest req;
        req.lpn = lpn;
        req.byteInPage = Bytes{address.raw() - lpn.raw() * page_.divisor()};
        req.bytes = m.evBytes;
        req.tableId = tableId;
        return req;
    }

    /**
     * Step 1: per-batch metadata scan cost — the widest table's
     * extent count, scanned one entry per cycle.
     */
    Cycle metadataScanCycles() const;

    /** EVsize of a registered table. */
    Bytes vectorBytes(TableId tableId) const;

  private:
    /** One extent's precomputed index range (Fig. 6's table rows). */
    struct ExtentRange
    {
        EvIndex firstIndex; //!< inclusive
        EvIndex lastIndex;  //!< exclusive
        Bytes startByte;    //!< start LBA x sector size
    };

    struct TableMeta
    {
        Bytes evBytes;
        std::uint64_t numRows = 0;
        std::vector<ExtentRange> ranges;
    };

    const TableMeta &
    meta(TableId tableId) const
    {
        if (!hasTable(tableId))
            unknownTable(tableId);
        return tables_[tableId.raw()];
    }

    /** fatal() for a lookup on a table that was never registered. */
    [[noreturn]] static void unknownTable(TableId tableId);

    Bytes sectorSize_;
    /** Divides a logical byte address by the flash page size. */
    Divider page_;
    std::vector<TableMeta> tables_; //!< indexed by tableId
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_EV_TRANSLATOR_H
