/**
 * @file
 * EMB-PageSum baseline (Section VI-A) and the page-grain in-SSD
 * pooling engine it shares with the RecSSD baseline: embedding pages
 * are read from flash at page granularity *inside* the device, pooled
 * by the controller, and only the per-table partial sums return to
 * the host.
 */

#ifndef RMSSD_BASELINE_EMB_PAGESUM_SYSTEM_H
#define RMSSD_BASELINE_EMB_PAGESUM_SYSTEM_H

#include <functional>

#include "baseline/system.h"
#include "nvme/dma.h"

namespace rmssd::baseline {

/**
 * In-device page-granular lookup + pooling over a simulated SSD.
 * RecSSD composes this with a host-side vector cache; the predicate
 * passed to poolBatch says which lookups the host already holds.
 */
class PageGrainPooler
{
  public:
    /**
     * @param perReadOverheadCycles serialized controller-firmware
     *        cost per flash lookup (0 for the FPGA-native
     *        EMB-PageSum; RecSSD's OpenSSD firmware pays ~2 us per
     *        page for command handling and page-aligned buffering)
     */
    explicit PageGrainPooler(SimulatedSsd &ssd,
                             const model::ModelConfig &config,
                             Cycle perReadOverheadCycles = Cycle{});

    /** Lookup filter: true = served by the host cache, skip flash. */
    using HostCached =
        std::function<bool(std::uint32_t table, std::uint64_t row)>;

    /**
     * Pool one request batch in-device starting at @p start; lookups
     * for which @p cached returns true are skipped (RecSSD host
     * cache hits). @return completion cycle.
     */
    Cycle poolBatch(Cycle start,
                    const std::vector<model::Sample> &batch,
                    const HostCached &cached);

  private:
    SimulatedSsd &ssd_;
    model::ModelConfig config_;
    Cycle perReadOverheadCycles_;
};

/** EMB-PageSum: in-SSD page-grain pooling, MLP on the host. */
class EmbPageSumSystem : public InferenceSystem
{
  public:
    explicit EmbPageSumSystem(const model::ModelConfig &config,
                              const host::CpuCosts &cpuCosts = {});

    workload::RunResult run(workload::TraceGenerator &gen,
                            std::uint32_t batchSize,
                            std::uint32_t numBatches,
                            std::uint32_t warmupBatches) override;

  private:
    model::ModelConfig config_;
    host::CpuModel cpu_;
    SimulatedSsd ssd_;
    PageGrainPooler pooler_;
    nvme::DmaEngine dma_;
    Cycle deviceNow_;
};

} // namespace rmssd::baseline

#endif // RMSSD_BASELINE_EMB_PAGESUM_SYSTEM_H
