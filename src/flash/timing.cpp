#include "flash/timing.h"

#include <cmath>

namespace rmssd::flash {

Cycle
NandTiming::flushCycles() const
{
    return Cycle{
        std::llround(flushFraction *
                     static_cast<double>(pageReadCycles.raw()))};
}

Cycle
NandTiming::transferCycles(Bytes bytes) const
{
    return scaledTransferCycles(pageReadCycles - flushCycles(), bytes,
                                pageSizeBytes);
}

Cycle
NandTiming::pageReadTotalCycles() const
{
    return flushCycles() + transferCycles(pageSizeBytes);
}

Cycle
NandTiming::vectorReadTotalCycles(Bytes bytes) const
{
    return flushCycles() + transferCycles(bytes);
}

NandTiming
tableIITiming()
{
    return NandTiming{};
}

} // namespace rmssd::flash
