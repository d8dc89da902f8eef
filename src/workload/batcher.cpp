#include "workload/batcher.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::workload {

BatcherResult
simulateBatchedServing(engine::InferenceDevice &device,
                       TraceGenerator &gen, const BatcherConfig &config)
{
    RMSSD_ASSERT(config.maxBatch >= 1, "batch cap must be positive");
    RMSSD_ASSERT(config.arrivalQps > 0.0, "non-positive arrival rate");
    device.resetTiming();
    device.setMaxInflight(
        std::max<std::uint32_t>(config.queueDepth, 1));

    Rng rng(config.seed);
    const double meanGapNanos = 1e9 / config.arrivalQps;

    // Pre-draw every arrival time (Poisson process).
    std::vector<Nanos> arrivals(config.numQueries);
    double t = 0.0;
    for (auto &a : arrivals) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        t += -meanGapNanos * std::log(u);
        a = Nanos{static_cast<std::uint64_t>(t)};
    }

    LatencyRecorder latencies;
    BatcherResult result;
    result.offeredQps = config.arrivalQps;

    Cycle lastCompletion;
    std::size_t next = 0;
    std::uint64_t batchedQueries = 0;
    // Query index ranges of dispatched-but-uncompleted batches, FIFO —
    // device completions pop in dispatch order.
    std::deque<std::pair<std::size_t, std::size_t>> pendingRanges;
    const auto recordCompletion =
        [&](const engine::AsyncCompletion &completion) {
            const auto range = pendingRanges.front();
            pendingRanges.pop_front();
            const Nanos done =
                cyclesToNanos(completion.outcome.completionCycle);
            for (std::size_t q = range.first; q < range.second; ++q)
                latencies.add(done - arrivals[q]);
            lastCompletion = std::max(
                lastCompletion, completion.outcome.completionCycle);
        };
    while (next < arrivals.size()) {
        // The window opens at the first pending query's arrival. Two
        // events can close it: the size-cap arrival, or the flush
        // timer armed at open + flushTimeout. The timer fires on its
        // own — a long lull (or the end of the arrival stream) cannot
        // hold a partial batch open past the timeout.
        const Nanos windowOpen = arrivals[next];
        const Nanos flushAt = windowOpen + config.flushTimeout;
        std::size_t end = next + 1;
        while (end < arrivals.size() && end - next < config.maxBatch &&
               arrivals[end] <= flushAt) {
            ++end;
        }
        const std::size_t batchSize = end - next;
        const Nanos dispatch = batchSize == config.maxBatch
                                   ? arrivals[end - 1] // cap event
                                   : flushAt;          // timer event
        const Cycle dispatchCycle = nanosToCycles(dispatch);
        if (device.deviceNow() < dispatchCycle) {
            device.advanceHostClock(
                cyclesToNanos(dispatchCycle - device.deviceNow()));
        }
        const auto batch =
            gen.nextBatch(static_cast<std::uint32_t>(batchSize));
        device.submit(batch);
        pendingRanges.emplace_back(next, end);
        while (const auto completion = device.poll())
            recordCompletion(*completion);
        batchedQueries += batchSize;
        ++result.dispatches;
        next = end;
    }
    for (const engine::AsyncCompletion &completion : device.drain())
        recordCompletion(completion);
    RMSSD_ASSERT(pendingRanges.empty(),
                 "drain left batches unaccounted");

    // An empty stream dispatches nothing: report zeros, not 0/0.
    const double seconds = nanosToSeconds(cyclesToNanos(lastCompletion));
    result.achievedQps =
        seconds > 0.0 ? static_cast<double>(batchedQueries) / seconds
                      : 0.0;
    result.meanBatchSize =
        result.dispatches > 0
            ? static_cast<double>(batchedQueries) /
                  static_cast<double>(result.dispatches)
            : 0.0;
    result.meanLatency = latencies.mean();
    result.p95 = latencies.percentile(95.0);
    result.p99 = latencies.percentile(99.0);
    return result;
}

} // namespace rmssd::workload
