#include "baseline/recssd_system.h"

namespace rmssd::baseline {

RecssdSystem::RecssdSystem(const model::ModelConfig &config,
                           std::uint64_t cacheVectorsPerTable,
                           const host::CpuCosts &cpuCosts)
    : InferenceSystem("RecSSD"), config_(config), cpu_(cpuCosts),
      pooler_(ssd_, config, kFirmwarePerPageCycles),
      cache_(cacheVectorsPerTable * config.numTables)
{
    ssd_.layoutTables(config_);
}

workload::RunResult
RecssdSystem::run(workload::TraceGenerator &gen,
                  std::uint32_t batchSize, std::uint32_t numBatches,
                  std::uint32_t warmupBatches)
{
    // Warm the host vector cache. The paper statically partitions it
    // from profiled history, so when any warm-up is requested we also
    // seed the cache with the trace's hot set (hottest rank last =
    // most recent), exactly what a history-based partition would hold.
    if (warmupBatches > 0) {
        const std::uint64_t hotRows =
            gen.traceConfig().hotRowsPerTable;
        for (std::uint64_t r = hotRows; r-- > 0;) {
            for (std::uint32_t t = 0; t < config_.numTables; ++t)
                cache_.access({t, gen.hotRow(t, r)});
        }
    }
    for (std::uint32_t b = 0; b < warmupBatches; ++b) {
        const auto batch = gen.nextBatch(batchSize);
        for (const model::Sample &sample : batch) {
            for (std::uint32_t t = 0; t < config_.numTables; ++t) {
                for (const std::uint64_t row : sample.indices[t])
                    cache_.access({t, row});
            }
        }
    }
    cache_.resetStats();

    const std::uint64_t pooledBytes =
        static_cast<std::uint64_t>(config_.numTables) * config_.embDim *
        sizeof(float);

    return workload::runHostLoop(
        name_, config_, gen, batchSize, numBatches,
        [&](const std::vector<model::Sample> &batch,
            workload::RunResult &result) {
            workload::Breakdown bd;

            // Pre-classify against the host cache; cached lookups
            // merge on the CPU, the rest pool in-device at page
            // granularity.
            std::uint64_t hostHits = 0;
            const auto cached = [&](std::uint32_t table,
                                    std::uint64_t row) {
                const bool hit = cache_.access({table, row});
                if (hit)
                    ++hostHits;
                return hit;
            };

            const std::uint64_t indexBytes =
                static_cast<std::uint64_t>(batchSize) *
                config_.lookupsPerSample() * sizeof(std::uint32_t);
            const Cycle inputsReady =
                dma_.transfer(deviceNow_, Bytes{indexBytes});
            const Cycle poolDone =
                pooler_.poolBatch(inputsReady, batch, cached);
            const Cycle end =
                dma_.transfer(poolDone, Bytes{pooledBytes * batchSize});
            bd.embSsd += cyclesToNanos(end - deviceNow_);
            deviceNow_ = end;
            result.hostTrafficBytes += Bytes{pooledBytes * batchSize};

            // Merge host-cached vectors into the device partial sums.
            bd.embOp += hostHits * kMergePerVectorNanos;

            if (slsOnly_) {
                bd.other += cpu_.frameworkNanos();
            } else {
                addHostMlpCosts(cpu_, config_, batchSize, bd);
            }
            deviceNow_ += nanosToCycles(bd.total() - bd.embSsd);
            return bd;
        });
}

} // namespace rmssd::baseline
