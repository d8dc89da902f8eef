/**
 * @file
 * RM-SSD as an InferenceSystem: the full device (and RM-SSD-Naive),
 * RM-SSD+cache and its admission variants, and the multi-SSD fleets
 * ("RM-SSD x2", "RM-SSD x4") whose cluster facade scatters each
 * request's lookups to the owning shards. The entire recommendation
 * inference runs behind one InferenceDevice; only indices/dense
 * inputs go down and CTR results come back, and every backend is
 * measured by the same closed-loop run().
 */

#ifndef RMSSD_BASELINE_RM_SSD_SYSTEM_H
#define RMSSD_BASELINE_RM_SSD_SYSTEM_H

#include <memory>

#include "baseline/system.h"
#include "cluster/cluster.h"
#include "engine/rm_ssd.h"

namespace rmssd::baseline {

/** Inference served end to end by a device-clocked backend. */
class RmSsdSystem : public InferenceSystem
{
  public:
    /** Fully offloaded inference (Searched or Naive engine variant). */
    RmSsdSystem(const model::ModelConfig &config,
                engine::EngineVariant variant =
                    engine::EngineVariant::Searched);

    /**
     * RM-SSD+cache (and its frequency-aware variants): the searched
     * engine with the device-side EV cache and intra-batch index
     * coalescing enabled. @p name distinguishes cache policies in
     * reports (e.g. "RM-SSD+lfu" for TinyLFU admission).
     */
    RmSsdSystem(const model::ModelConfig &config,
                const engine::EvCacheConfig &evCache,
                const std::string &name = "RM-SSD+cache");

    /** Scale-out serving across a fleet of RM-SSD shards. */
    RmSsdSystem(const model::ModelConfig &config,
                const cluster::ClusterOptions &options,
                const std::string &name);

    /**
     * Requests pipeline through the device one at a time; wall-clock
     * spans the post-warm-up watermark to the last completion, and
     * host traffic and the EV-cache hit ratio are window deltas of
     * the device counters. At least one warm-up request always runs
     * to establish the watermark.
     */
    workload::RunResult run(workload::TraceGenerator &gen,
                            std::uint32_t batchSize,
                            std::uint32_t numBatches,
                            std::uint32_t warmupBatches) override;

    /**
     * Closed-loop request latency on an idle device (the Fig. 13
     * methodology): mean over @p requests single requests, each on
     * fresh timing state.
     */
    Nanos measureLatency(workload::TraceGenerator &gen,
                         std::uint32_t batchSize,
                         std::uint32_t requests = 5);

    engine::InferenceDevice &device() { return *device_; }

  private:
    model::ModelConfig config_;
    std::unique_ptr<engine::InferenceDevice> device_;
};

} // namespace rmssd::baseline

#endif // RMSSD_BASELINE_RM_SSD_SYSTEM_H
