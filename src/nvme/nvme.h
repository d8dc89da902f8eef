/**
 * @file
 * NVMe block command path: the conventional host<->SSD interface.
 *
 * Timing is a protocol overhead (submission doorbell, command fetch,
 * completion interrupt) around the FTL/flash read. With the Table II
 * flash timing and the default overheads, QD1 random-4K latency is
 * ~22 us, i.e. ~45 K IOPS — the paper's calibration target.
 */

#ifndef RMSSD_NVME_NVME_H
#define RMSSD_NVME_NVME_H

#include <cstdint>
#include <span>

#include "ftl/ftl.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::nvme {

/** Protocol latencies charged per NVMe command. */
struct NvmeConfig
{
    /** Doorbell + command fetch + parse, in cycles (~1 us). */
    Cycle submissionCycles{200};
    /** Completion entry + interrupt + host handling (~1.2 us). */
    Cycle completionCycles{240};
};

/** NVMe controller front-end over the FTL. */
class NvmeController
{
  public:
    NvmeController(ftl::Ftl &ftl, const NvmeConfig &config = {});

    /**
     * Timed 4K-aligned block read. @p out may be empty (timing only).
     * @return completion cycle as seen by the host.
     */
    Cycle readBlocks(Cycle issue, Lba lba, Sectors sectors,
                     std::span<std::uint8_t> out);

    /** Uncontended QD1 latency of a 4K random read, in cycles. */
    Cycle randomReadLatencyCycles() const;

    /** Implied QD1 random-4K IOPS (Table II reports 45 K). */
    double randomReadIops() const;

    const Counter &hostBytesRead() const { return hostBytesRead_; }

    ftl::Ftl &ftl() { return ftl_; }

  private:
    ftl::Ftl &ftl_;
    NvmeConfig config_;

    Counter hostBytesRead_;
};

} // namespace rmssd::nvme

#endif // RMSSD_NVME_NVME_H
