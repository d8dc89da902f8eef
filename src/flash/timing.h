/**
 * @file
 * NAND timing model from Table II and Section V-A of the paper.
 *
 * A page read Tpage = 20 us splits into Tflush (cell array -> per-die
 * page buffer, ~70%) and Ttrans (page buffer -> controller over the
 * shared per-channel bus, ~30%, one byte per cycle at full page size).
 * Vector-grained reads keep the full flush but only transfer EVsize
 * bytes, giving the paper's delay formula
 *
 *     CEV = ceil(0.3 * Cpage * EVsize / Psize) + 0.7 * Cpage
 *         = ceil(0.293 * EVsize) + 2800 cycles       (4 KB page)
 *
 * which reproduces Table II exactly for Cpage = 4000.
 */

#ifndef RMSSD_FLASH_TIMING_H
#define RMSSD_FLASH_TIMING_H

#include <cstdint>

#include "sim/log.h"
#include "sim/types.h"

namespace rmssd::flash {

/**
 * Bus cycles to move @p bytes out of a @p pageSize page whose whole
 * transfer takes @p pageTransfer cycles. Integer ceil-division off the
 * exact cycle count; a floating-point (1 - flushFraction) would round
 * 0.3 up.
 */
inline Cycle
scaledTransferCycles(Cycle pageTransfer, Bytes bytes, Bytes pageSize)
{
    RMSSD_ASSERT(bytes <= pageSize, "transfer larger than a page");
    return Cycle{(pageTransfer.raw() * bytes.raw() + pageSize.raw() - 1) /
                 pageSize.raw()};
}

/** Tunable NAND latencies, all in device cycles (5 ns each). */
struct NandTiming
{
    /** Full page read delay Cpage (Table II: 4000 cycles = 20 us). */
    Cycle pageReadCycles{4000};

    /** Fraction of Cpage spent flushing cell array to page buffer. */
    double flushFraction = 0.7;

    /** Page size the transfer fraction is normalized to. */
    Bytes pageSizeBytes{4096};

    /** Program (write) delay; exercised by the table-load path. */
    Cycle pageProgramCycles{40000};

    /** Cycles to flush a page from the cell array to the page buffer. */
    Cycle flushCycles() const;

    /** Cycles to move @p bytes from the page buffer over the bus. */
    Cycle transferCycles(Bytes bytes) const;

    /** End-to-end cycles for an uncontended full page read. */
    Cycle pageReadTotalCycles() const;

    /**
     * End-to-end cycles for an uncontended vector-grained read of
     * @p bytes — the paper's CEV formula.
     */
    Cycle vectorReadTotalCycles(Bytes bytes) const;
};

/** Timing from Table II (Cpage = 4000 cycles, 4 KB pages). */
NandTiming tableIITiming();

} // namespace rmssd::flash

#endif // RMSSD_FLASH_TIMING_H
