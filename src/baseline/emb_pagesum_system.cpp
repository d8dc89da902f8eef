#include "baseline/emb_pagesum_system.h"

#include <algorithm>

#include "engine/ev_sum.h"
#include "engine/ev_translator.h"

namespace rmssd::baseline {

PageGrainPooler::PageGrainPooler(SimulatedSsd &ssd,
                                 const model::ModelConfig &config,
                                 Cycle perReadOverheadCycles)
    : ssd_(ssd), config_(config),
      perReadOverheadCycles_(perReadOverheadCycles)
{
}

Cycle
PageGrainPooler::poolBatch(Cycle start,
                           const std::vector<model::Sample> &batch,
                           const HostCached &cached)
{
    const std::uint32_t evBytes = config_.vectorBytes();
    const std::uint32_t pageSize = static_cast<std::uint32_t>(
        ssd_.flash().geometry().pageSizeBytes.raw());
    const std::uint32_t sectorSize = static_cast<std::uint32_t>(
        ssd_.flash().geometry().sectorSizeBytes.raw());

    Cycle issue = start + engine::EvTranslator::kPipelineFillCycles;
    Cycle lastDone = issue;
    for (const model::Sample &sample : batch) {
        for (std::uint32_t t = 0; t < config_.numTables; ++t) {
            Cycle tableDone = issue;
            for (const std::uint64_t row : sample.indices[t]) {
                if (cached && cached(t, row))
                    continue;
                // Whole page through the conventional FMC path.
                const Bytes pageByte{
                    row * static_cast<std::uint64_t>(evBytes) /
                    pageSize * pageSize};
                const auto loc = ssd_.tableExtents(t).locateByte(
                    pageByte, Bytes{sectorSize});
                const auto phys = ssd_.ftl().translate(loc.lba);
                const Cycle done =
                    ssd_.flash()
                        .readPage(issue + ftl::Ftl::kTranslateCycles,
                                  phys.ppn, {})
                        .done;
                tableDone = std::max(tableDone, done);
                // Controller processing serializes request issue.
                issue += engine::EvTranslator::kCyclesPerIndex +
                         perReadOverheadCycles_;
            }
            lastDone = std::max(lastDone,
                                tableDone + engine::EvSum::kDrainCycles);
        }
    }
    return lastDone;
}

EmbPageSumSystem::EmbPageSumSystem(const model::ModelConfig &config,
                                   const host::CpuCosts &cpuCosts)
    : InferenceSystem("EMB-PageSum"), config_(config), cpu_(cpuCosts),
      pooler_(ssd_, config)
{
    ssd_.layoutTables(config_);
}

workload::RunResult
EmbPageSumSystem::run(workload::TraceGenerator &gen,
                      std::uint32_t batchSize, std::uint32_t numBatches,
                      std::uint32_t warmupBatches)
{
    for (std::uint32_t b = 0; b < warmupBatches; ++b)
        gen.nextBatch(batchSize); // no host cache to warm

    const std::uint64_t pooledBytes =
        static_cast<std::uint64_t>(config_.numTables) * config_.embDim *
        sizeof(float);

    return workload::runHostLoop(
        name_, config_, gen, batchSize, numBatches,
        [&](const std::vector<model::Sample> &batch,
            workload::RunResult &result) {
            workload::Breakdown bd;

            // Indices down, pooled partial sums back, both via DMA.
            const std::uint64_t indexBytes =
                static_cast<std::uint64_t>(batchSize) *
                config_.lookupsPerSample() * sizeof(std::uint32_t);
            const Cycle inputsReady =
                dma_.transfer(deviceNow_, Bytes{indexBytes});
            const Cycle poolDone =
                pooler_.poolBatch(inputsReady, batch, {});
            const Cycle end =
                dma_.transfer(poolDone, Bytes{pooledBytes * batchSize});
            bd.embSsd += cyclesToNanos(end - deviceNow_);
            deviceNow_ = end;
            result.hostTrafficBytes += Bytes{pooledBytes * batchSize};

            if (slsOnly_) {
                bd.other += cpu_.frameworkNanos();
            } else {
                addHostMlpCosts(cpu_, config_, batchSize, bd);
            }
            // Host compute proceeds after the device returns; advance
            // the device clock so the next batch's DMA starts then.
            deviceNow_ += nanosToCycles(bd.total() - bd.embSsd);
            return bd;
        });
}

} // namespace rmssd::baseline
