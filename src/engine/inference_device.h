/**
 * @file
 * InferenceDevice: the abstract contract every device-like inference
 * backend satisfies — a single RM-SSD (engine::RmSsd), a sharded
 * multi-SSD cluster (cluster::RmSsdCluster), or any future backend.
 *
 * The serving simulator (workload::simulateServing) and the
 * closed-loop probe (workload::runClosedLoop, behind steadyStateQps
 * and the device-backed baseline system) are written against this
 * interface only, so an experiment can drive 1..N devices without
 * knowing what is behind the queue.
 */

#ifndef RMSSD_ENGINE_INFERENCE_DEVICE_H
#define RMSSD_ENGINE_INFERENCE_DEVICE_H

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::host {
class EmbeddingTier;
}

namespace rmssd::engine {

/** Host-visible outcome of one inference request. */
struct InferenceOutcome
{
    Nanos latency;        //!< request arrival to results readable
    Cycle completionCycle; //!< absolute device cycle of completion
    /**
     * Per-sample results (functional only): one CTR value per sample,
     * or the pooled embedding (numTables*dim floats per sample) for
     * embedding-only backends.
     */
    std::vector<float> outputs;
};

/** Ticket identifying one asynchronously submitted request. */
using RequestId = std::uint64_t;

/** "Never" sentinel for completion-cycle probes (nothing in flight). */
inline constexpr Cycle kNeverCycle{
    std::numeric_limits<std::uint64_t>::max()};

/** One retired asynchronous request. */
struct AsyncCompletion
{
    RequestId id = 0;
    InferenceOutcome outcome;
};

/** Abstract inference backend with a device clock. */
class InferenceDevice
{
  public:
    virtual ~InferenceDevice() = default;

    /**
     * Run one inference request of arbitrary batch size. Large
     * batches partition into micro-batches that stream through the
     * backend's engines. Synchronous: equivalent to submit() followed
     * by drain() — any other outstanding submissions retire with it
     * (their completions are consumed by the internal drain).
     */
    virtual InferenceOutcome
    infer(std::span<const model::Sample> samples) = 0;

    // ---- Asynchronous surface (cross-request pipelining) ----------
    //
    // submit() issues a request without waiting for its results; up
    // to maxInflight() requests overlap inside the backend, each
    // engine (flash/embedding, MLP units, DMA) scheduled on its own
    // occupancy track. When the bounded queue is full, submit first
    // retires the oldest outstanding request (backpressure). poll()
    // pops already-retired completions in FIFO order without
    // advancing the timeline; drain() retires everything outstanding.
    // At maxInflight() == 1 the submit/retire sequence is
    // op-for-op identical to the blocking infer() loop, so existing
    // results reproduce bit-for-bit.

    /**
     * Issue one request asynchronously. Retires the oldest
     * outstanding request first when maxInflight() are already in
     * flight.
     */
    virtual RequestId submit(std::span<const model::Sample> samples) = 0;

    /**
     * Pop the oldest retired completion, FIFO; std::nullopt when none
     * has retired yet. Never advances the device timeline.
     */
    std::optional<AsyncCompletion> poll();

    /**
     * Pop the retired completion for @p id regardless of its queue
     * position; std::nullopt when @p id has not retired (or was
     * already consumed). Hosts that track requests by ticket — the
     * cluster gather, the serving loop — pair completions by id
     * instead of relying on FIFO ordering.
     */
    std::optional<AsyncCompletion> pollId(RequestId id);

    /** Whether a retired completion for @p id awaits pollId(). */
    bool hasCompletionFor(RequestId id) const;

    /**
     * Retire every outstanding request and return all unconsumed
     * completions in FIFO order. Idempotent: a second drain() with
     * nothing submitted in between returns an empty vector.
     */
    std::vector<AsyncCompletion> drain();

    /**
     * Force-retire the oldest outstanding request into the completion
     * queue. @return false when nothing is in flight. Backends that
     * complete inside submit() keep the no-op default.
     */
    virtual bool retireNext() { return false; }

    /**
     * Non-blocking completion probe: whether retireNext() would find
     * its work already finished by cycle @p when — a completion is
     * queued, or the oldest in-flight request's engine work is done (a
     * host status poll at @p when would read done; only the result
     * readout tail may run slightly past it). Lets a polling host
     * harvest finished requests opportunistically without blocking its
     * clock on an unfinished one. Conservative default for synchronous
     * backends: only queued completions count.
     */
    virtual bool oldestDoneBy(Cycle when) const
    {
        (void)when;
        return hasQueuedCompletion();
    }

    /**
     * Eager completion scan: retire EVERY outstanding request whose
     * engine work is done by cycle @p when — not only the oldest — so
     * a polling host can harvest out-of-order finishers without
     * blocking its clock on a straggler at the front of the queue.
     * The default walks the FIFO probe (oldestDoneBy + retireNext),
     * which is exact for backends whose pipeline completes in order.
     * @return requests retired by this scan
     */
    virtual std::uint32_t harvestDoneBy(Cycle when);

    /**
     * Earliest cycle at which some in-flight request's engine work
     * completes (the first cycle a status poll would read done);
     * kNeverCycle when nothing is in flight. Lets an event-driven
     * host advance straight to the next completion instead of
     * spinning a probe. Synchronous backends never hold in-flight
     * work, so the default is the sentinel.
     */
    virtual Cycle nextDoneCycle() const { return kNeverCycle; }

    /** Requests currently issued but not yet retired. */
    virtual std::uint32_t inflight() const { return 0; }

    /** Bounded queue depth: requests that may overlap in the device. */
    std::uint32_t maxInflight() const { return maxInflight_; }

    /**
     * Set the queue depth (>= 1). Shrinking below the current
     * inflight() count retires the oldest requests down to the new
     * bound.
     */
    virtual void setMaxInflight(std::uint32_t depth);

    /** The functional model served by this backend. */
    virtual const model::DlrmModel &model() const = 0;

    /** Current device clock (advances across infer calls). */
    virtual Cycle deviceNow() const = 0;

    /** Completion cycle of the most recent request. */
    virtual Cycle lastCompletion() const = 0;

    /**
     * Account host-side work between requests: the next request
     * cannot be issued before the host finishes.
     */
    virtual void advanceHostClock(Nanos hostNanos) = 0;

    /** Idle the backend: clears all timing state (not the counters). */
    virtual void resetTiming() = 0;

    /**
     * Register every backend counter under @p prefix (gem5-style
     * stats dump support).
     */
    virtual void registerStats(StatsRegistry &registry,
                               const std::string &prefix) const = 0;

    /** Host bytes read from the backend per inference accounting. */
    virtual const Counter &hostBytesRead() const = 0;
    /** Host bytes written to the backend (indices + dense inputs). */
    virtual const Counter &hostBytesWritten() const = 0;

    /** Samples per micro-batch the backend pipelines internally. */
    virtual std::uint32_t pipelineMicroBatch() const = 0;

    // EV-cache feedback hooks; cacheless backends keep the defaults.

    /** Whether a device-side EV cache is active. */
    virtual bool hasEvCache() const { return false; }
    /** Cumulative EV-cache hits (0 without a cache). */
    virtual std::uint64_t cacheHits() const { return 0; }
    /** Cumulative EV-cache misses (0 without a cache). */
    virtual std::uint64_t cacheMisses() const { return 0; }
    /**
     * Adaptive re-planning hook: re-balance the backend when the
     * measured hit ratio drifts more than @p threshold from the
     * planned one. Default: nothing to re-plan.
     * @return true when the backend re-planned
     */
    virtual bool replanIfDrifted(double threshold)
    {
        (void)threshold;
        return false;
    }
    /** Number of adaptive re-plans performed. */
    virtual std::uint64_t replanCount() const { return 0; }

    // Frequency-aware placement hooks; backends with the linear
    // layout keep the defaults.

    /**
     * Background migration hook: when the online heat estimate says
     * the hot page set has drifted off the striped hot tier, relocate
     * a bounded batch of pages through the timed flash path (the
     * migration traffic contends with foreground reads).
     * @return pages migrated by this pass (0 when nothing drifted)
     */
    virtual std::uint64_t migrateIfDrifted() { return 0; }
    /** Cumulative pages relocated by background migration. */
    virtual std::uint64_t migratedPageCount() const { return 0; }

    // Host-DRAM embedding-tier hooks; backends without tier support
    // keep the defaults (requests always reach the device whole).

    /**
     * Attach a host-DRAM embedding tier in front of this backend:
     * submissions are intercepted on the host, fully tier-resident
     * (sample, table) slices are served from DRAM, and only the
     * residual indices reach the device. Detach with nullptr. The
     * base implementation ignores the tier (no host interception).
     */
    virtual void
    attachHostTier(std::shared_ptr<host::EmbeddingTier> tier)
    {
        (void)tier;
    }
    /** The attached host tier; nullptr without one. */
    virtual const host::EmbeddingTier *hostTier() const
    {
        return nullptr;
    }
    /** Cumulative tier slice hits (0 without a tier). */
    virtual std::uint64_t tierSliceHits() const { return 0; }
    /** Cumulative tier slice misses (0 without a tier). */
    virtual std::uint64_t tierSliceMisses() const { return 0; }

    /**
     * Charge input DMA by the actual per-sample index counts instead
     * of the backend's config formula. Layers that rewrite requests
     * before they reach the device (host-tier residuals, multi-tenant
     * fronts submitting union-shape samples) set this so DMA
     * accounting matches the indices actually carried. Backends
     * without the knob keep formula accounting (no-op default).
     */
    virtual void setChargeActualIndexBytes(bool on) { (void)on; }

  protected:
    /**
     * drain(), then return the outcome of request @p id (the tail of
     * every synchronous infer()); fatal() when no drained completion
     * carries @p id.
     */
    InferenceOutcome drainFor(RequestId id);

    /** Allocate the next submission ticket. */
    RequestId allocateRequestId() { return ++requestIdCounter_; }
    /** Queue a retired request for poll()/drain(). */
    void pushCompletion(AsyncCompletion completion);
    /** Drop queued completions and reset depth bookkeeping (timing reset). */
    void clearCompletions();
    /** Whether an already-retired completion awaits poll(). */
    bool hasQueuedCompletion() const { return !completed_.empty(); }

    /** Async submissions. */
    Counter submitted_;
    /** Requests retired through the async surface. */
    Counter retired_;
    /** Queue occupancy sampled at each submit (includes the new request). */
    Distribution queueDepthOnSubmit_;

  private:
    std::uint32_t maxInflight_ = 1;
    std::uint64_t requestIdCounter_ = 0;
    std::deque<AsyncCompletion> completed_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_INFERENCE_DEVICE_H
