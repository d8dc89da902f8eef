#include "timed_device.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace rmssd::perf {

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::uint32_t
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? kNoParent : stack_.back();
    span.startNs = now();
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(std::uint32_t index)
{
    spans_[index].endNs = now();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

TimedDevice::TimedDevice(engine::InferenceDevice &inner) : inner_(inner)
{
    // Start from the wrapped device's depth so maxInflight() agrees.
    InferenceDevice::setMaxInflight(inner_.maxInflight());
}

void
TimedDevice::resetAudit()
{
    order_.clear();
    records_.clear();
    unknown_ = 0;
    lastRetired_ = Cycle{};
}

std::uint64_t
TimedDevice::auditFailures() const
{
    std::uint64_t failures = unknown_;
    for (const engine::RequestId id : order_) {
        if (records_.at(id).retirements != 1)
            ++failures;
    }
    // A ticket handed out twice shows as fewer records than submits.
    return failures + (order_.size() - records_.size());
}

engine::RequestId
TimedDevice::collect()
{
    engine::RequestId first = 0;
    while (auto completion = inner_.poll()) {
        const auto it = records_.find(completion->id);
        if (it == records_.end()) {
            ++unknown_;
        } else {
            Record &record = it->second;
            ++record.retirements;
            record.completion = completion->outcome.completionCycle;
            lastRetired_ = std::max(lastRetired_, record.completion);
            if (keepOutputs_)
                record.outputs = completion->outcome.outputs;
        }
        if (first == 0)
            first = completion->id;
        pushCompletion(std::move(*completion));
    }
    return first;
}

template <typename Call>
auto
TimedDevice::forward(const char *name, Call &&call)
{
    const std::uint32_t span = tracer_ ? tracer_->open(name) : 0;
    const auto finish = [&] {
        const engine::RequestId first = collect();
        if (tracer_) {
            if (first != 0)
                tracer_->setId(span, first);
            tracer_->close(span);
        }
    };
    if constexpr (std::is_void_v<std::invoke_result_t<Call>>) {
        call();
        finish();
    } else {
        auto result = call();
        finish();
        return result;
    }
}

engine::InferenceOutcome
TimedDevice::infer(std::span<const model::Sample> samples)
{
    return forward("engine.infer", [&] {
        engine::InferenceOutcome outcome = inner_.infer(samples);
        // The bare device's infer drains every queued completion too.
        clearCompletions();
        return outcome;
    });
}

engine::RequestId
TimedDevice::submit(std::span<const model::Sample> samples)
{
    const std::uint32_t span =
        tracer_ ? tracer_->open("engine.submit") : 0;
    const engine::RequestId id = inner_.submit(samples);
    order_.push_back(id);
    records_.try_emplace(id);
    collect();
    if (tracer_) {
        tracer_->setId(span, id);
        tracer_->close(span);
    }
    return id;
}

bool
TimedDevice::retireNext()
{
    return forward("engine.retire", [&] { return inner_.retireNext(); });
}

bool
TimedDevice::oldestDoneBy(Cycle when) const
{
    return hasQueuedCompletion() || inner_.oldestDoneBy(when);
}

std::uint32_t
TimedDevice::harvestDoneBy(Cycle when)
{
    return forward("engine.retire",
                   [&] { return inner_.harvestDoneBy(when); });
}

Cycle
TimedDevice::nextDoneCycle() const
{
    return inner_.nextDoneCycle();
}

std::uint32_t
TimedDevice::inflight() const
{
    return inner_.inflight();
}

void
TimedDevice::setMaxInflight(std::uint32_t depth)
{
    forward("engine.retire", [&] { inner_.setMaxInflight(depth); });
    // Mirror the bound so the non-virtual maxInflight() agrees; the
    // wrapped device already shrank, so this retires nothing.
    InferenceDevice::setMaxInflight(depth);
}

const model::DlrmModel &
TimedDevice::model() const
{
    return inner_.model();
}

Cycle
TimedDevice::deviceNow() const
{
    return inner_.deviceNow();
}

Cycle
TimedDevice::lastCompletion() const
{
    return inner_.lastCompletion();
}

void
TimedDevice::advanceHostClock(Nanos hostNanos)
{
    inner_.advanceHostClock(hostNanos);
}

void
TimedDevice::resetTiming()
{
    forward("engine.reset", [&] {
        inner_.resetTiming();
        clearCompletions();
    });
}

void
TimedDevice::registerStats(StatsRegistry &registry,
                           const std::string &prefix) const
{
    inner_.registerStats(registry, prefix);
}

const Counter &
TimedDevice::hostBytesRead() const
{
    return inner_.hostBytesRead();
}

const Counter &
TimedDevice::hostBytesWritten() const
{
    return inner_.hostBytesWritten();
}

std::uint32_t
TimedDevice::pipelineMicroBatch() const
{
    return inner_.pipelineMicroBatch();
}

bool
TimedDevice::hasEvCache() const
{
    return inner_.hasEvCache();
}

std::uint64_t
TimedDevice::cacheHits() const
{
    return inner_.cacheHits();
}

std::uint64_t
TimedDevice::cacheMisses() const
{
    return inner_.cacheMisses();
}

bool
TimedDevice::replanIfDrifted(double threshold)
{
    return forward("engine.replan",
                   [&] { return inner_.replanIfDrifted(threshold); });
}

std::uint64_t
TimedDevice::replanCount() const
{
    return inner_.replanCount();
}

std::uint64_t
TimedDevice::migrateIfDrifted()
{
    return forward("engine.migrate",
                   [&] { return inner_.migrateIfDrifted(); });
}

std::uint64_t
TimedDevice::migratedPageCount() const
{
    return inner_.migratedPageCount();
}

void
TimedDevice::attachHostTier(std::shared_ptr<host::EmbeddingTier> tier)
{
    inner_.attachHostTier(std::move(tier));
}

const host::EmbeddingTier *
TimedDevice::hostTier() const
{
    return inner_.hostTier();
}

std::uint64_t
TimedDevice::tierSliceHits() const
{
    return inner_.tierSliceHits();
}

std::uint64_t
TimedDevice::tierSliceMisses() const
{
    return inner_.tierSliceMisses();
}

void
TimedDevice::setChargeActualIndexBytes(bool on)
{
    inner_.setChargeActualIndexBytes(on);
}

} // namespace rmssd::perf
