/**
 * @file
 * PipelinedDevice: the bounded async request queue of engine::RmSsd
 * and cluster::RmSsdCluster — the host-tier front, backpressure, the
 * done-probes, retires and infer(), written once. A backend supplies
 * three hooks: issue(), readyCycle() (the first cycle a status poll
 * reads a request done, DESIGN §16; read afresh on every probe) and
 * retire().
 */

#ifndef RMSSD_ENGINE_PIPELINED_DEVICE_H
#define RMSSD_ENGINE_PIPELINED_DEVICE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "engine/inference_device.h"
#include "host/embedding_tier.h"
#include "model/dlrm.h"
#include "sim/log.h"
#include "sim/types.h"

namespace rmssd::engine {

/** Async queue of in-flight @p Request records (with a RequestId id). */
template <class Request>
class PipelinedDevice : public InferenceDevice
{
  public:
    InferenceOutcome
    infer(std::span<const model::Sample> samples) override
    {
        return drainFor(submit(samples));
    }

    /**
     * With an active host tier, intercept the request on the host,
     * charge the DRAM time and forward only the residual; then retire
     * the oldest requests while the queue is full (backpressure) and
     * issue. At depth 1 this is the blocking loop op-for-op.
     */
    RequestId submit(std::span<const model::Sample> samples) override
    {
        RMSSD_ASSERT(!samples.empty(), "empty inference request");
        std::optional<host::EmbeddingTier::Intercept> icpt;
        if (hostTier_ && hostTier_->active()) {
            icpt = hostTier_->intercept(samples, functional_);
            advanceHostClock(icpt->hostNanos);
        }
        while (queue_.size() >= maxInflight())
            retireAt(0);
        const RequestId id = allocateRequestId();
        Request request = icpt ? issue(icpt->residual, &*icpt)
                               : issue(samples, nullptr);
        request.id = id;
        submitted_.inc();
        queue_.push_back(std::move(request));
        queueDepthOnSubmit_.sample(static_cast<double>(queue_.size()));
        return id;
    }

    bool retireNext() override
    {
        if (queue_.empty())
            return false;
        retireAt(0);
        return true;
    }

    bool oldestDoneBy(Cycle when) const override
    {
        return hasQueuedCompletion() ||
               (!queue_.empty() && readyCycle(queue_.front()) <= when);
    }

    /** Scans in queue order, so mid-queue finishers retire too. */
    std::uint32_t harvestDoneBy(Cycle when) override
    {
        std::uint32_t retired = 0;
        for (std::size_t pos = 0; pos < queue_.size();) {
            if (readyCycle(queue_[pos]) <= when) {
                retireAt(pos);
                ++retired;
            } else {
                ++pos;
            }
        }
        return retired;
    }

    Cycle nextDoneCycle() const override
    {
        Cycle earliest = kNeverCycle;
        for (const Request &request : queue_)
            earliest = std::min(earliest, readyCycle(request));
        return earliest;
    }

    /**
     * Ready cycle of request @p id; Cycle{0} once its completion is
     * queued, kNeverCycle for unknown (or consumed) ids.
     */
    Cycle requestDoneCycle(RequestId id) const
    {
        if (hasCompletionFor(id))
            return Cycle{0};
        for (const Request &request : queue_) {
            if (request.id == id)
                return readyCycle(request);
        }
        return kNeverCycle;
    }

    /** Retire in-flight request @p id regardless of queue position. */
    bool retireById(RequestId id)
    {
        for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
            if (queue_[pos].id == id) {
                retireAt(pos);
                return true;
            }
        }
        return false;
    }

    std::uint32_t inflight() const override
    {
        return static_cast<std::uint32_t>(queue_.size());
    }

    /** The tier's model must have this backend's table count. */
    void
    attachHostTier(std::shared_ptr<host::EmbeddingTier> tier) override
    {
        if (tier)
            RMSSD_ASSERT(tier->model().config().numTables ==
                             model().config().numTables,
                         "tier model shape does not match the device");
        hostTier_ = std::move(tier);
    }
    const host::EmbeddingTier *hostTier() const override
    {
        return hostTier_.get();
    }
    std::uint64_t tierSliceHits() const override
    {
        return hostTier_ ? hostTier_->sliceHits().value() : 0;
    }
    std::uint64_t tierSliceMisses() const override
    {
        return hostTier_ ? hostTier_->sliceMisses().value() : 0;
    }

  protected:
    /** @p functional: tier intercepts carry pooled partials. */
    explicit PipelinedDevice(bool functional) : functional_(functional)
    {
    }

    /** Drop in-flight requests and queued completions (timing reset). */
    void clearRequests()
    {
        queue_.clear();
        clearCompletions();
    }

  private:
    /**
     * Issue stage of one request. @p icpt is the host-tier intercept
     * whose residual IS @p samples (nullptr without a tier); the hook
     * may move its served partials out.
     */
    virtual Request issue(std::span<const model::Sample> samples,
                          host::EmbeddingTier::Intercept *icpt) = 0;
    /** First cycle a status poll reads @p request done. */
    virtual Cycle readyCycle(const Request &request) const = 0;
    /** Retire stage of a request already taken off the queue. */
    virtual InferenceOutcome retire(Request request) = 0;

    /** Take the request at @p pos off the queue and retire it. */
    void retireAt(std::size_t pos)
    {
        RMSSD_ASSERT(pos < queue_.size(), "no request in flight");
        Request request = std::move(queue_[pos]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
        const RequestId id = request.id;
        InferenceOutcome outcome = retire(std::move(request));
        retired_.inc();
        pushCompletion({id, std::move(outcome)});
    }

    bool functional_;
    std::shared_ptr<host::EmbeddingTier> hostTier_;
    std::deque<Request> queue_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_PIPELINED_DEVICE_H
