/**
 * @file
 * RecSSD-style baseline (Wilkening et al., ASPLOS'21) as re-implemented
 * by the paper on its emulated SSD (Section VI-C): embedding lookups
 * are offloaded to the SSD at *page* granularity with in-device
 * pooling, and a host-side cache of hot embedding vectors serves the
 * high-locality share; device partial sums and host-cached vectors
 * merge on the CPU. The MLP stays on the host.
 */

#ifndef RMSSD_BASELINE_RECSSD_SYSTEM_H
#define RMSSD_BASELINE_RECSSD_SYSTEM_H

#include <cstdint>

#include "baseline/emb_pagesum_system.h"
#include "baseline/system.h"
#include "host/page_cache.h"
#include "nvme/dma.h"

namespace rmssd::baseline {

/** RecSSD: page-grain ISC pooling + host vector cache. */
class RecssdSystem : public InferenceSystem
{
  public:
    RecssdSystem(const model::ModelConfig &config,
                 std::uint64_t cacheVectorsPerTable = 16384,
                 const host::CpuCosts &cpuCosts = {});

    workload::RunResult run(workload::TraceGenerator &gen,
                            std::uint32_t batchSize,
                            std::uint32_t numBatches,
                            std::uint32_t warmupBatches) override;

  private:
    /** Host-side merge cost of one cached vector into the pool. */
    static constexpr Nanos kMergePerVectorNanos{60};
    /**
     * Per-page firmware handling on the device (command parsing,
     * FTL interaction, page-aligned result buffering) — the OpenSSD
     * datapath RecSSD runs on: ~5 us/page (1000 device cycles).
     * Calibration: the paper's RecSSD throughput on RMC1 (~800 QPS
     * at the default 65%-hit trace, Fig. 12/14) implies ~5.6 us per
     * device page lookup, and the paper notes vector extraction and
     * summing take about half the total lookup time on the ARM path.
     */
    static constexpr Cycle kFirmwarePerPageCycles{1000};

    model::ModelConfig config_;
    host::CpuModel cpu_;
    SimulatedSsd ssd_;
    PageGrainPooler pooler_;
    host::PageCache cache_; //!< host vector cache keyed {table, row}
    nvme::DmaEngine dma_;
    Cycle deviceNow_;
};

} // namespace rmssd::baseline

#endif // RMSSD_BASELINE_RECSSD_SYSTEM_H
