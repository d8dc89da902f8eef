/**
 * @file
 * Single flash die: a timestamp resource serializing cell-array
 * operations (flush to page buffer, program).
 *
 * Flushes on distinct dies overlap; flushes on one die serialize.
 * Combined with the shared channel bus this reproduces the paper's
 * claim that vector-grained reads raise bulk-read throughput, not just
 * single-read latency (Section IV-B2).
 */

#ifndef RMSSD_FLASH_DIE_H
#define RMSSD_FLASH_DIE_H

#include <algorithm>

#include "sim/types.h"

namespace rmssd::flash {

/** One die's cell-array occupancy timeline. */
class FlashDie
{
  public:
    /**
     * Occupy the die for @p duration cycles, starting no earlier than
     * @p earliest and no earlier than the die's previous operation.
     * @return the cycle at which the operation completes.
     */
    Cycle
    acquire(Cycle earliest, Cycle duration)
    {
        const Cycle start = std::max(earliest, nextFree_);
        nextFree_ = start + duration;
        busy_ += duration;
        return nextFree_;
    }

    /** First cycle at which the die is idle. */
    Cycle nextFree() const { return nextFree_; }

    /** Total cycles this die has spent busy (utilization stat). */
    Cycle busyCycles() const { return busy_; }

    /** Forget all timing state. */
    void
    reset()
    {
        nextFree_ = {};
        busy_ = {};
    }

  private:
    Cycle nextFree_;
    Cycle busy_;
};

} // namespace rmssd::flash

#endif // RMSSD_FLASH_DIE_H
