#include "baseline/rm_ssd_system.h"

#include <algorithm>

namespace rmssd::baseline {

RmSsdSystem::RmSsdSystem(const model::ModelConfig &config,
                         engine::EngineVariant variant)
    : InferenceSystem(variant == engine::EngineVariant::Searched
                          ? "RM-SSD"
                          : "RM-SSD-Naive"),
      config_(config)
{
    engine::RmSsdOptions options;
    options.variant = variant;
    auto device = std::make_unique<engine::RmSsd>(config, options);
    device->loadTables();
    device_ = std::move(device);
}

RmSsdSystem::RmSsdSystem(const model::ModelConfig &config,
                         const engine::EvCacheConfig &evCache,
                         const std::string &name)
    : InferenceSystem(name), config_(config)
{
    engine::RmSsdOptions options;
    options.variant = engine::EngineVariant::Searched;
    options.evCache = evCache;
    options.evCache.enabled = true;
    options.coalesceIndices = true;
    auto device = std::make_unique<engine::RmSsd>(config, options);
    device->loadTables();
    device_ = std::move(device);
}

RmSsdSystem::RmSsdSystem(const model::ModelConfig &config,
                         const cluster::ClusterOptions &options,
                         const std::string &name)
    : InferenceSystem(name), config_(config),
      device_(std::make_unique<cluster::RmSsdCluster>(config, options))
{
}

Nanos
RmSsdSystem::measureLatency(workload::TraceGenerator &gen,
                            std::uint32_t batchSize,
                            std::uint32_t requests)
{
    Nanos sum;
    for (std::uint32_t r = 0; r < requests; ++r) {
        device_->resetTiming();
        sum += device_->infer(gen.nextBatch(batchSize)).latency;
    }
    device_->resetTiming();
    return sum / requests;
}

workload::RunResult
RmSsdSystem::run(workload::TraceGenerator &gen, std::uint32_t batchSize,
                 std::uint32_t numBatches, std::uint32_t warmupBatches)
{
    engine::InferenceDevice &device = *device_;
    // At least one unmeasured request establishes the completion
    // watermark the measured window starts from (otherwise work
    // queued by earlier runs would be charged to this one).
    const std::uint32_t warm = std::max<std::uint32_t>(warmupBatches, 1);
    Cycle start = device.deviceNow();
    for (std::uint32_t b = 0; b < warm; ++b)
        start = std::max(
            start, device.infer(gen.nextBatch(batchSize)).completionCycle);

    const std::uint64_t trafficBefore = device.hostBytesRead().value();
    const std::uint64_t hitsBefore = device.cacheHits();
    const std::uint64_t missesBefore = device.cacheMisses();
    const workload::ClosedLoopRun loop = workload::runClosedLoop(
        device, 1, numBatches, batchSize, [&](std::uint32_t) {
            device.submit(gen.nextBatch(batchSize));
        });

    workload::RunResult result;
    result.system = name_;
    result.batches = loop.requests;
    result.samples = loop.samples;
    // Requests pipeline through the device, so wall-clock is the span
    // from the watermark to the last completion.
    result.totalNanos = cyclesToNanos(std::max(start, loop.last) - start);
    // Whole run is in-device; report it as device time. Individual
    // request latency is available as embSsd / batches.
    result.breakdown.embSsd = loop.latencySum;
    result.hostTrafficBytes =
        Bytes{device.hostBytesRead().value() - trafficBefore};
    result.idealTrafficBytes =
        Bytes{loop.samples * config_.lookupsPerSample() *
              config_.vectorBytes()};
    // Hit ratio over the measured window only (the warm-up requests
    // already populated the cache, so this is the warm figure).
    const std::uint64_t hits = device.cacheHits() - hitsBefore;
    const std::uint64_t misses = device.cacheMisses() - missesBefore;
    if (hits + misses > 0)
        result.cacheHitRatio = static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
    return result;
}

} // namespace rmssd::baseline
