#include "engine/inference_device.h"

#include "sim/log.h"

namespace rmssd::engine {

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

} // namespace rmssd::engine
