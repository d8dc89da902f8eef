/**
 * @file
 * Common interface and shared substrate for all evaluated inference
 * systems: DRAM-only, the naive SSD deployments (SSD-S/SSD-M), the
 * incremental ISC variants (EMB-MMIO, EMB-PageSum, EMB-VectorSum),
 * RecSSD, RM-SSD-Naive, and the full RM-SSD (Section VI).
 */

#ifndef RMSSD_BASELINE_SYSTEM_H
#define RMSSD_BASELINE_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/ftl.h"
#include "host/cpu_model.h"
#include "model/dlrm.h"
#include "nvme/nvme.h"
#include "workload/driver.h"
#include "workload/trace_gen.h"

namespace rmssd::baseline {

/** One evaluated recommendation-serving system. */
class InferenceSystem
{
  public:
    virtual ~InferenceSystem() = default;

    const std::string &name() const { return name_; }

    /**
     * Serve @p numBatches requests of @p batchSize samples from
     * @p gen and report steady-state measurements. @p warmupBatches
     * requests are served first without being measured (cache
     * warm-up, matching the paper's steady-state methodology).
     */
    virtual workload::RunResult run(workload::TraceGenerator &gen,
                                    std::uint32_t batchSize,
                                    std::uint32_t numBatches,
                                    std::uint32_t warmupBatches) = 0;

    /**
     * Restrict measurement to the SLS operator (embedding lookup +
     * pooling) only — the Fig. 10 configuration. Host MLP costs and
     * device MLP stages are skipped.
     */
    void setSlsOnly(bool slsOnly) { slsOnly_ = slsOnly; }

  protected:
    explicit InferenceSystem(std::string name) : name_(std::move(name)) {}

    std::string name_;
    bool slsOnly_ = false;
};

/**
 * A conventional simulated SSD stack (flash + FTL + NVMe) with the
 * embedding tables laid out as files, shared by the host-driven
 * baselines.
 */
class SimulatedSsd
{
  public:
    explicit SimulatedSsd(
        const flash::Geometry &geometry = flash::tableIIGeometry(),
        const flash::NandTiming &timing = flash::tableIITiming());

    /** Allocate extents for every table of @p config. */
    void layoutTables(const model::ModelConfig &config);

    flash::FlashArray &flash() { return flash_; }
    ftl::Ftl &ftl() { return ftl_; }
    nvme::NvmeController &nvme() { return nvme_; }
    const ftl::ExtentList &tableExtents(std::uint32_t table) const;

  private:
    flash::FlashArray flash_;
    ftl::Ftl ftl_;
    nvme::NvmeController nvme_;
    std::vector<ftl::ExtentList> extents_;
};

/**
 * Charge one request batch's host-side MLP work (bottom, top,
 * interaction, framework dispatch) to @p breakdown.
 * @return total nanoseconds charged
 */
Nanos addHostMlpCosts(const host::CpuModel &cpu,
                      const model::ModelConfig &config,
                      std::uint32_t batchSize,
                      workload::Breakdown &breakdown);

} // namespace rmssd::baseline

#endif // RMSSD_BASELINE_SYSTEM_H
