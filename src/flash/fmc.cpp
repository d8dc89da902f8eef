#include "flash/fmc.h"

#include "sim/log.h"

namespace rmssd::flash {

Fmc::Fmc(std::uint32_t numDies, const NandTiming &timing)
    : timing_(timing), flushCycles_(timing.flushCycles()),
      pageTransferCycles_(timing.pageReadCycles - flushCycles_),
      dies_(numDies)
{
    RMSSD_ASSERT(numDies > 0, "channel with no dies");
}

ReadTiming
Fmc::readPage(Cycle issue, std::uint32_t die)
{
    RMSSD_ASSERT(die < dies_.size(), "die index out of range");
    if (dies_[die].nextFree() > issue)
        dieConflicts_.inc();
    ReadTiming t;
    t.flushDone = dies_[die].acquire(issue, flushCycles_);
    t.done = bus_.transfer(t.flushDone, pageTransferCycles_);
    pageReads_.inc();
    busBytes_.inc(timing_.pageSizeBytes.raw());
    return t;
}

Cycle
Fmc::programPage(Cycle issue, std::uint32_t die)
{
    RMSSD_ASSERT(die < dies_.size(), "die index out of range");
    // Data first crosses the bus into the die buffer, then programs.
    const Cycle busDone = bus_.transfer(issue, pageTransferCycles_);
    busBytes_.inc(timing_.pageSizeBytes.raw());
    pagePrograms_.inc();
    return dies_[die].acquire(busDone, timing_.pageProgramCycles);
}

Cycle
Fmc::dieBusyCycles(std::uint32_t die) const
{
    RMSSD_ASSERT(die < dies_.size(), "die index out of range");
    return dies_[die].busyCycles();
}

void
Fmc::resetTiming()
{
    for (auto &die : dies_)
        die.reset();
    bus_.reset();
}

void
Fmc::resetAll()
{
    resetTiming();
    pageReads_.reset();
    vectorReads_.reset();
    busBytes_.reset();
    pagePrograms_.reset();
    dieConflicts_.reset();
}

} // namespace rmssd::flash
