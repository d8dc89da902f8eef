/**
 * @file
 * Flash memory controller for one channel.
 *
 * Serves two request flavours:
 *  - page reads: flush the page to the die buffer, then stream the
 *    whole page over the channel bus (conventional FMC behaviour);
 *  - vector reads: flush the page, then stream only EVsize bytes from
 *    the column offset (the EV-FMC of Section IV-B2).
 *
 * The remaining bytes of a vector-read page are dropped, exploiting the
 * poor spatial locality of embedding lookups (Section III-B2).
 */

#ifndef RMSSD_FLASH_FMC_H
#define RMSSD_FLASH_FMC_H

#include <cstdint>
#include <vector>

#include "flash/channel.h"
#include "flash/die.h"
#include "flash/timing.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::flash {

/** Timing outcome of one flash read. */
struct ReadTiming
{
    /** Cycle the page was ready in the die's page buffer. */
    Cycle flushDone;
    /** Cycle the requested bytes finished crossing the channel bus. */
    Cycle done;
};

/**
 * The bytes of one vector read and the bus cycles they take: a table's
 * bus share, made from its EV size (Fmc::vectorTransfer) once per
 * table slice instead of once per read.
 */
struct VectorTransfer
{
    Bytes bytes;
    Cycle busCycles;
};

/** Per-channel controller owning the channel's dies and bus. */
class Fmc
{
  public:
    Fmc(std::uint32_t numDies, const NandTiming &timing);

    /** Read a whole page from die @p die, issued at @p issue. */
    ReadTiming readPage(Cycle issue, std::uint32_t die);

    /**
     * The bus share of a @p bytes vector read: the same integer
     * ceil-division NandTiming::transferCycles gives. Dies on a
     * transfer above a page.
     */
    VectorTransfer
    vectorTransfer(Bytes bytes) const
    {
        return VectorTransfer{bytes,
                              scaledTransferCycles(pageTransferCycles_,
                                                   bytes,
                                                   timing_.pageSizeBytes)};
    }

    /** Read @p xfer's bytes from die @p die at some column offset. */
    ReadTiming
    readVector(Cycle issue, std::uint32_t die, const VectorTransfer &xfer)
    {
        RMSSD_ASSERT(die < dies_.size(), "die index out of range");
        FlashDie &target = dies_[die];
        if (target.nextFree() > issue)
            dieConflicts_.inc();
        ReadTiming t;
        t.flushDone = target.acquire(issue, flushCycles_);
        t.done = bus_.transfer(t.flushDone, xfer.busCycles);
        vectorReads_.inc();
        busBytes_.inc(xfer.bytes.raw());
        return t;
    }

    /** Program a page on die @p die (table-loading path). */
    Cycle programPage(Cycle issue, std::uint32_t die);

    std::uint32_t numDies() const
    {
        return static_cast<std::uint32_t>(dies_.size());
    }

    const Counter &pageReads() const { return pageReads_; }
    const Counter &vectorReads() const { return vectorReads_; }
    const Counter &busBytes() const { return busBytes_; }
    const Counter &pagePrograms() const { return pagePrograms_; }
    /**
     * Reads that arrived while their target die was still busy and
     * queued behind it — the die-contention signal that motivates
     * frequency-aware placement (hot pages colliding on one die).
     */
    const Counter &dieConflicts() const { return dieConflicts_; }
    Cycle busBusyCycles() const { return bus_.busyCycles(); }
    Cycle dieBusyCycles(std::uint32_t die) const;

    /** Forget all timing state; counters are kept. */
    void resetTiming();

    /** Reset counters as well. */
    void resetAll();

  private:
    NandTiming timing_;
    /** NandTiming::flushCycles(), fixed at construction. */
    Cycle flushCycles_;
    /** Bus cycles of a whole page: pageReadCycles - flushCycles_. */
    Cycle pageTransferCycles_;
    std::vector<FlashDie> dies_;
    ChannelBus bus_;

    Counter pageReads_;
    Counter vectorReads_;
    Counter busBytes_;
    Counter pagePrograms_;
    Counter dieConflicts_;
};

} // namespace rmssd::flash

#endif // RMSSD_FLASH_FMC_H
