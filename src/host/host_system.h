/**
 * @file
 * Host-side file reader for the naive SSD deployments: lseek+read
 * semantics through an LRU page cache into the simulated NVMe device.
 *
 * This is the substrate of the SSD-S / SSD-M baselines (Section III-B):
 * every embedding lookup becomes a read() that either hits the page
 * cache or fills a whole 4 KB page from flash — the source of the
 * read amplification in Fig. 3.
 */

#ifndef RMSSD_HOST_HOST_SYSTEM_H
#define RMSSD_HOST_HOST_SYSTEM_H

#include <cstdint>
#include <span>

#include "ftl/extent.h"
#include "host/io_stack.h"
#include "host/page_cache.h"
#include "nvme/nvme.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::host {

/** Host file reader over the page cache and NVMe block path. */
class HostFileReader
{
  public:
    HostFileReader(nvme::NvmeController &nvme, std::uint64_t cachePages,
                   const IoStackCosts &costs = {});

    /**
     * Read @p bytes at @p byteOffset of file @p fileId (laid out by
     * @p extents). Vector reads must not straddle a cache page.
     *
     * @param now host wall-clock before the read (ns)
     * @param out destination, or empty for timing-only
     * @return host-visible cost split into fs and ssd shares
     */
    IoCost readVector(std::uint32_t fileId,
                      const ftl::ExtentList &extents,
                      Bytes byteOffset, Bytes bytes, Nanos now,
                      std::span<std::uint8_t> out);

    /**
     * reachability: test-observer — read by
     * ReaderFixture.MissPaysDeviceAndKernelCosts.
     */
    const PageCache &cache() const { return cache_; }

    /** Bytes actually fetched from the device (read amplification). */
    const Counter &deviceBytes() const { return deviceBytes_; }

    void resetStats();

  private:
    nvme::NvmeController &nvme_;
    PageCache cache_;
    IoStackCosts costs_;

    Counter deviceBytes_;
};

} // namespace rmssd::host

#endif // RMSSD_HOST_HOST_SYSTEM_H
