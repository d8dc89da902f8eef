/**
 * @file
 * Shared per-channel data bus.
 *
 * All dies on a channel share one in/out bus ("though flash arrays have
 * a deep hierarchy of storage, all in/out data share one bus for each
 * channel", Section IV-B2). Transfers serialize on this resource.
 */

#ifndef RMSSD_FLASH_CHANNEL_H
#define RMSSD_FLASH_CHANNEL_H

#include <algorithm>
#include <cstdint>

#include "sim/types.h"

namespace rmssd::flash {

/** One channel's bus occupancy timeline. */
class ChannelBus
{
  public:
    /**
     * Transfer for @p duration cycles starting no earlier than
     * @p ready (data available in the page buffer) and no earlier than
     * the end of the previous bus transfer.
     * @return the completion cycle.
     */
    Cycle
    transfer(Cycle ready, Cycle duration)
    {
        const Cycle start = std::max(ready, nextFree_);
        nextFree_ = start + duration;
        busy_ += duration;
        return nextFree_;
    }

    Cycle nextFree() const { return nextFree_; }

    /** Total bus-busy cycles (bandwidth utilization stat). */
    Cycle busyCycles() const { return busy_; }

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

#endif // RMSSD_FLASH_CHANNEL_H
