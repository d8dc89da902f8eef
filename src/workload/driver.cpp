#include "workload/driver.h"

#include <algorithm>

#include "engine/inference_device.h"
#include "sim/log.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {

Nanos
Breakdown::total() const
{
    return topMlp + botMlp + concat + embOp + embFs + embSsd + other;
}

Breakdown &
Breakdown::operator+=(const Breakdown &o)
{
    topMlp += o.topMlp;
    botMlp += o.botMlp;
    concat += o.concat;
    embOp += o.embOp;
    embFs += o.embFs;
    embSsd += o.embSsd;
    other += o.other;
    return *this;
}

double
RunResult::qps() const
{
    if (totalNanos == Nanos{})
        return 0.0;
    return static_cast<double>(samples) /
           nanosToSeconds(totalNanos);
}

Nanos
RunResult::latencyPerBatch() const
{
    return batches == 0 ? Nanos{} : totalNanos / batches;
}

double
RunResult::readAmplification() const
{
    if (idealTrafficBytes == Bytes{})
        return 0.0;
    return static_cast<double>(hostTrafficBytes.raw()) /
           static_cast<double>(idealTrafficBytes.raw());
}

RunResult
runHostLoop(const std::string &system,
            const model::ModelConfig &config, TraceGenerator &gen,
            std::uint32_t batchSize, std::uint32_t numBatches,
            const ServeBatchFn &serveBatch)
{
    RunResult result;
    result.system = system;
    for (std::uint32_t b = 0; b < numBatches; ++b) {
        const auto batch = gen.nextBatch(batchSize);
        const Breakdown bd = serveBatch(batch, result);
        result.breakdown += bd;
        result.totalNanos += bd.total();
        ++result.batches;
        result.samples += batchSize;
        result.idealTrafficBytes +=
            Bytes{static_cast<std::uint64_t>(batchSize) *
                  config.lookupsPerSample() * config.vectorBytes()};
    }
    return result;
}

double
ClosedLoopRun::requestsPerSecond() const
{
    return static_cast<double>(requests) /
           nanosToSeconds(cyclesToNanos(last - first));
}

double
ClosedLoopRun::samplesPerSecond() const
{
    return static_cast<double>(samples) /
           nanosToSeconds(cyclesToNanos(last - first));
}

ClosedLoopRun
runClosedLoop(engine::InferenceDevice &device, std::uint32_t depth,
              std::uint32_t requests, std::uint32_t batchSize,
              const SubmitFn &submit)
{
    device.setMaxInflight(depth);
    ClosedLoopRun run;
    run.first = device.deviceNow();
    run.last = run.first;
    run.requests = requests;
    run.samples = std::uint64_t{requests} * batchSize;
    const auto retire = [&run](const engine::AsyncCompletion &c) {
        run.last = std::max(run.last, c.outcome.completionCycle);
        run.latencySum += c.outcome.latency;
    };
    for (std::uint32_t r = 0; r < requests; ++r) {
        submit(r);
        while (const auto completion = device.poll())
            retire(*completion);
    }
    for (const engine::AsyncCompletion &completion : device.drain())
        retire(completion);
    return run;
}

double
steadyStateQps(engine::InferenceDevice &device, std::uint32_t batchSize,
               std::uint32_t measureBatches)
{
    RMSSD_ASSERT(batchSize > 0, "zero batch size");
    device.resetTiming();
    const std::uint32_t mbSize =
        std::min<std::uint32_t>(batchSize, device.pipelineMicroBatch());
    const std::uint32_t requests = std::max<std::uint32_t>(
        1, (measureBatches * mbSize + batchSize - 1) / batchSize);
    std::vector<model::Sample> batch(batchSize);
    return runClosedLoop(device, 1, requests, batchSize,
                         [&](std::uint32_t r) {
                             for (std::uint32_t s = 0; s < batchSize;
                                  ++s)
                                 batch[s] = device.model().makeSample(
                                     r * 131071ULL + s);
                             device.submit(batch);
                         })
        .samplesPerSecond();
}

} // namespace rmssd::workload
