#include "engine/inference_device.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::engine {

RequestId
InferenceDevice::submit(std::span<const model::Sample> samples)
{
    // Synchronous fallback for backends without an async pipeline:
    // serve the request inline and queue the completion, so callers
    // written against submit/poll work unchanged (depth degrades
    // to 1).
    const RequestId id = allocateRequestId();
    AsyncCompletion completion;
    completion.id = id;
    completion.outcome = infer(samples);
    submitted_.inc();
    retired_.inc();
    queueDepthOnSubmit_.sample(1.0);
    pushCompletion(std::move(completion));
    return id;
}

std::optional<AsyncCompletion>
InferenceDevice::poll()
{
    if (completed_.empty())
        return std::nullopt;
    AsyncCompletion completion = std::move(completed_.front());
    completed_.pop_front();
    return completion;
}

std::optional<AsyncCompletion>
InferenceDevice::pollId(RequestId id)
{
    for (auto it = completed_.begin(); it != completed_.end(); ++it) {
        if (it->id != id)
            continue;
        AsyncCompletion completion = std::move(*it);
        completed_.erase(it);
        return completion;
    }
    return std::nullopt;
}

bool
InferenceDevice::hasCompletionFor(RequestId id) const
{
    for (const AsyncCompletion &completion : completed_) {
        if (completion.id == id)
            return true;
    }
    return false;
}

std::uint32_t
InferenceDevice::harvestDoneBy(Cycle when)
{
    std::uint32_t retired = 0;
    while (oldestDoneBy(when)) {
        if (!retireNext())
            break;
        ++retired;
    }
    return retired;
}

std::vector<AsyncCompletion>
InferenceDevice::drain()
{
    while (retireNext()) {
    }
    std::vector<AsyncCompletion> out;
    out.reserve(completed_.size());
    for (AsyncCompletion &completion : completed_)
        out.push_back(std::move(completion));
    completed_.clear();
    return out;
}

InferenceOutcome
InferenceDevice::drainFor(RequestId id)
{
    for (AsyncCompletion &completion : drain()) {
        if (completion.id == id)
            return std::move(completion.outcome);
    }
    fatal("request %llu missing from the drained completions",
          static_cast<unsigned long long>(id));
}

void
InferenceDevice::setMaxInflight(std::uint32_t depth)
{
    RMSSD_ASSERT(depth >= 1, "queue depth must be at least 1");
    maxInflight_ = depth;
    while (inflight() > maxInflight_) {
        if (!retireNext())
            break;
    }
}

void
InferenceDevice::pushCompletion(AsyncCompletion completion)
{
    completed_.push_back(std::move(completion));
}

void
InferenceDevice::clearCompletions()
{
    completed_.clear();
}

double
InferenceDevice::steadyStateQps(std::uint32_t batchSize,
                                std::uint32_t measureBatches,
                                std::uint32_t queueDepth)
{
    RMSSD_ASSERT(batchSize > 0, "zero batch size");
    resetTiming();
    setMaxInflight(std::max<std::uint32_t>(queueDepth, 1));

    // Build a deterministic request stream.
    const std::uint32_t mbSize =
        std::min<std::uint32_t>(batchSize, pipelineMicroBatch());
    const std::uint32_t requests = std::max<std::uint32_t>(
        1, (measureBatches * mbSize + batchSize - 1) / batchSize);

    std::vector<model::Sample> batch(batchSize);
    const Cycle start = deviceNow();
    Cycle completed = start;
    std::uint64_t totalSamples = 0;
    for (std::uint32_t r = 0; r < requests; ++r) {
        for (std::uint32_t s = 0; s < batchSize; ++s)
            batch[s] = model().makeSample(r * 131071ULL + s);
        submit(batch);
        totalSamples += batchSize;
        while (const auto completion = poll()) {
            completed = std::max(completed,
                                 completion->outcome.completionCycle);
        }
    }
    for (const AsyncCompletion &completion : drain())
        completed =
            std::max(completed, completion.outcome.completionCycle);
    const double seconds =
        nanosToSeconds(cyclesToNanos(completed - start));
    return static_cast<double>(totalSamples) / seconds;
}

} // namespace rmssd::engine
