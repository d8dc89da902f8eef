/**
 * @file
 * Naive SSD deployment (Section III-B): embedding tables as files on
 * a conventional NVMe SSD, lookups via lseek+read through the page
 * cache, SLS and MLP on the host CPU. The DRAM limit (1/4 for SSD-S,
 * 1/2 for SSD-M of the total embedding bytes) bounds the page cache.
 */

#ifndef RMSSD_BASELINE_SSD_NAIVE_SYSTEM_H
#define RMSSD_BASELINE_SSD_NAIVE_SYSTEM_H

#include <memory>

#include "baseline/system.h"
#include "host/host_system.h"

namespace rmssd::baseline {

/** SSD-S / SSD-M: file-backed embeddings with a bounded page cache. */
class SsdNaiveSystem : public InferenceSystem
{
  public:
    /**
     * @param dramFraction page-cache capacity as a fraction of the
     *        total embedding bytes (SSD-S = 0.25, SSD-M = 0.5)
     */
    SsdNaiveSystem(const model::ModelConfig &config, double dramFraction,
                   const host::CpuCosts &cpuCosts = {},
                   const host::IoStackCosts &ioCosts = {});

    workload::RunResult run(workload::TraceGenerator &gen,
                            std::uint32_t batchSize,
                            std::uint32_t numBatches,
                            std::uint32_t warmupBatches) override;

  private:
    /** Serve one batch and charge its cost (warm-up discards it). */
    workload::Breakdown
    serveBatch(const std::vector<model::Sample> &batch);

    model::ModelConfig config_;
    host::CpuModel cpu_;
    SimulatedSsd ssd_;
    std::unique_ptr<host::HostFileReader> reader_;
    Nanos hostNow_;
};

} // namespace rmssd::baseline

#endif // RMSSD_BASELINE_SSD_NAIVE_SYSTEM_H
