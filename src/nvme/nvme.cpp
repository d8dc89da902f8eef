#include "nvme/nvme.h"

namespace rmssd::nvme {

NvmeController::NvmeController(ftl::Ftl &ftl, const NvmeConfig &config)
    : ftl_(ftl), config_(config)
{
}

Cycle
NvmeController::readBlocks(Cycle issue, Lba lba, Sectors sectors,
                           std::span<std::uint8_t> out)
{
    hostBytesRead_.inc(sectors.raw() * ftl_.sectorSize());
    const Cycle flashDone =
        ftl_.readSectors(issue + config_.submissionCycles, lba, sectors,
                         out);
    return flashDone + config_.completionCycles;
}

Cycle
NvmeController::randomReadLatencyCycles() const
{
    return config_.submissionCycles + ftl::Ftl::kTranslateCycles +
           ftl_.array().timing().pageReadTotalCycles() +
           config_.completionCycles;
}

double
NvmeController::randomReadIops() const
{
    const double seconds =
        nanosToSeconds(cyclesToNanos(randomReadLatencyCycles()));
    return 1.0 / seconds;
}

} // namespace rmssd::nvme
