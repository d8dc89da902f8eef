#include "workload/serving.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::workload {

void
LatencyRecorder::add(Nanos latency)
{
    samples_.push_back(latency);
    sorted_ = false;
}

void
LatencyRecorder::merge(const LatencyRecorder &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

Nanos
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return Nanos{};
    unsigned long long sum = 0;
    for (const Nanos s : samples_)
        sum += s.raw();
    return Nanos{sum / samples_.size()};
}

Nanos
LatencyRecorder::max() const
{
    if (samples_.empty())
        return Nanos{};
    return *std::max_element(samples_.begin(), samples_.end());
}

Nanos
LatencyRecorder::percentile(double p) const
{
    // Clamp rather than assert: out-of-range (or NaN) percentiles
    // from config arithmetic degrade to the min/max sample instead of
    // aborting a long experiment. Written so NaN fails into the first
    // branch (std::clamp on NaN is undefined).
    if (!(p >= 0.0))
        p = 0.0;
    else if (p > 100.0)
        p = 100.0;
    if (samples_.empty())
        return Nanos{};
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank =
        p / 100.0 * static_cast<double>(samples_.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
    return samples_[std::min(idx, samples_.size() - 1)];
}

namespace {

/**
 * Time-weighted mean queue depth over dispatch..completion spans:
 * depth(t) integrated from the first dispatch to the last completion,
 * divided by that span. Immune to the submit-sampling bias (sampling
 * only at submit instants over-weights bursts).
 */
double
timeWeightedDepth(const std::vector<std::pair<Cycle, Cycle>> &spans)
{
    if (spans.empty())
        return 0.0;
    std::vector<std::pair<Cycle, int>> events;
    events.reserve(spans.size() * 2);
    for (const auto &[from, to] : spans) {
        events.emplace_back(from, +1);
        events.emplace_back(to, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    double integral = 0.0;
    long long depth = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0) {
            const Cycle gap = events[i].first - events[i - 1].first;
            integral += static_cast<double>(depth) *
                        static_cast<double>(gap.raw());
        }
        depth += events[i].second;
    }
    const Cycle span = events.back().first - events.front().first;
    return span.raw() > 0 ? integral / static_cast<double>(span.raw())
                          : static_cast<double>(spans.size());
}

} // namespace

/**
 * The serving loop, modelled on the paper's host (§IV-D): it polls
 * the device and reads results as soon as they are ready. Arrivals
 * park in a priority/EDF dispatch queue (FIFO with one best-effort
 * class) where a class at its inflight cap sits out; finished
 * requests harvest eagerly via InferenceDevice::harvestDoneBy; a full
 * device queue blocks inside submit's own backpressure retire; and
 * (optionally) a DepthController walks the device queue depth on its
 * congestion signals. At depth 1 the eager harvest at the dispatch
 * clock retires exactly the request submit's backpressure would, so
 * the loop replays a serial submit-then-poll reference instruction
 * for instruction.
 */
ServingResult
simulateServing(engine::InferenceDevice &device,
                std::span<const Arrival> arrivals, const IssueFn &issue,
                const ServingConfig &config)
{
    RMSSD_ASSERT(config.arrivalQps > 0.0, "non-positive arrival rate");
    // The two pipelining knobs are mutually exclusive: an explicit
    // queueDepth sweep (> 1) contradicts the controller owning the
    // depth. Fail loudly instead of silently ignoring one.
    RMSSD_ASSERT(!(config.slo.adaptiveDepth && config.queueDepth > 1),
                 "adaptiveDepth and an explicit queueDepth sweep are "
                 "mutually exclusive");
    const SloServingOptions &slo = config.slo;
    std::vector<ServingClass> classes = slo.classes;
    if (classes.empty())
        classes.push_back(ServingClass{});
    const bool capped =
        std::any_of(classes.begin(), classes.end(),
                    [](const ServingClass &c) { return c.maxInflight > 0; });
    const std::size_t numRequests = arrivals.size();

    device.resetTiming();
    std::uint32_t depth = std::max<std::uint32_t>(config.queueDepth, 1);
    std::optional<DepthController> controller;
    if (slo.adaptiveDepth) {
        controller.emplace(slo.controller, slo.controller.minDepth);
        controller->prime(cyclesToNanos(device.deviceNow()));
        depth = controller->depth();
    }
    device.setMaxInflight(depth);

    /** One parked arrival awaiting dispatch. */
    struct Queued
    {
        Cycle arrival;
        Cycle deadlineAt; //!< kNeverCycle = best-effort
        std::uint32_t cls = 0;
        std::uint64_t seq = 0;
    };
    /** One dispatched-but-uncompleted request, keyed by ticket. */
    struct Pending
    {
        Queued queued;
        Cycle dispatched;
    };
    /** Per-class accumulators. */
    struct ClassState
    {
        LatencyRecorder latency;
        LatencyRecorder wait;
        std::uint64_t misses = 0;
        std::uint32_t inflight = 0;
        double inflightSum = 0.0; //!< inflight after each submit
        Cycle lastCompletion;
        std::uint64_t tierHits = 0;
        std::uint64_t tierMisses = 0;
    };

    std::vector<Queued> dispatchQ;
    std::map<engine::RequestId, Pending> pending;
    std::vector<ClassState> perClass(classes.size());
    std::vector<std::pair<Cycle, Cycle>> spans;
    spans.reserve(numRequests);

    ServingResult result;
    const bool cached = device.hasEvCache();
    const bool tiered = device.hostTier() != nullptr;
    const std::uint64_t replansBefore = device.replanCount();
    const std::uint64_t migratedBefore = device.migratedPageCount();
    const std::uint64_t tierHitsBefore = device.tierSliceHits();
    const std::uint64_t tierMissesBefore = device.tierSliceMisses();
    std::uint64_t hitsBase = cached ? device.cacheHits() : 0;
    std::uint64_t missesBase = cached ? device.cacheMisses() : 0;
    std::uint64_t steadyHits = 0;
    std::uint64_t steadyMisses = 0;

    std::size_t generated = 0;
    std::size_t dispatched = 0;
    std::uint64_t completed = 0;
    double depthOnSubmitSum = 0.0;
    Cycle lastCompletion;
    bool depthDirty = false;

    const auto advanceTo = [&](Cycle when) {
        if (device.deviceNow() < when)
            device.advanceHostClock(
                cyclesToNanos(when - device.deviceNow()));
    };
    const auto enqueueNextArrival = [&] {
        const Arrival &next = arrivals[generated];
        RMSSD_ASSERT(next.cls < classes.size() &&
                         (generated == 0 ||
                          arrivals[generated - 1].at <= next.at),
                     "arrival list unsorted or naming an unknown class");
        const Nanos deadline = classes[next.cls].deadline;
        dispatchQ.push_back({next.at,
                             deadline > Nanos{0}
                                 ? next.at + nanosToCycles(deadline)
                                 : engine::kNeverCycle,
                             next.cls, generated++});
    };
    const auto underCap = [&](std::uint32_t cls) {
        return classes[cls].maxInflight == 0 ||
               perClass[cls].inflight < classes[cls].maxInflight;
    };
    // Priority first, earliest deadline within a priority, arrival
    // order among deadline ties (so one best-effort class is FIFO).
    const auto before = [&](const Queued &a, const Queued &b) {
        const std::uint32_t pa = classes[a.cls].priority;
        const std::uint32_t pb = classes[b.cls].priority;
        return pa != pb ? pa > pb
                        : (a.deadlineAt != b.deadlineAt
                               ? a.deadlineAt < b.deadlineAt
                               : a.seq < b.seq);
    };
    // The best queued request; with @p eligibleOnly a class at its cap
    // sits out. dispatchQ.size() when none qualifies.
    const auto pickEdf = [&](bool eligibleOnly) {
        std::size_t best = dispatchQ.size();
        for (std::size_t i = 0; i < dispatchQ.size(); ++i)
            if ((!eligibleOnly || !capped || underCap(dispatchQ[i].cls)) &&
                (best == dispatchQ.size() ||
                 before(dispatchQ[i], dispatchQ[best])))
                best = i;
        return best;
    };

    const auto recordCompletion =
        [&](const engine::AsyncCompletion &completion) {
            const auto it = pending.find(completion.id);
            RMSSD_ASSERT(it != pending.end(),
                         "completion for unknown request");
            const auto [req, dispatchedAt] = it->second;
            pending.erase(it);
            ClassState &cls = perClass[req.cls];
            const Cycle end = completion.outcome.completionCycle;
            const Nanos wait = cyclesToNanos(dispatchedAt - req.arrival);
            cls.latency.add(cyclesToNanos(end - req.arrival));
            cls.wait.add(wait);
            result.queueWaitNanos.sample(
                static_cast<double>(wait.raw()));
            result.serviceNanos.sample(static_cast<double>(
                cyclesToNanos(end - dispatchedAt).raw()));
            if (req.deadlineAt != engine::kNeverCycle &&
                end > req.deadlineAt) {
                ++cls.misses;
                ++result.deadlineMisses;
            }
            spans.emplace_back(dispatchedAt, end);
            lastCompletion = std::max(lastCompletion, end);
            cls.lastCompletion = std::max(cls.lastCompletion, end);
            --cls.inflight;
            ++completed;
            if (controller) {
                // The request's queue wait is the congestion signal:
                // with presend, the blocking cost of a too-shallow
                // queue lands inside submit's input transfer, so the
                // backpressure retire itself barely moves the clock and
                // the wait is the only place the cost is visible.
                controller->onWait(wait);
                if (controller->onCompletion(
                        cyclesToNanos(device.deviceNow())))
                    depthDirty = true;
            }
        };
    // Depth changes apply OUTSIDE recordCompletion: a shrink can
    // force-retire (queueing more completions), so loop until the
    // completion queue and the pending depth change both settle.
    const auto drainCompletions = [&] {
        for (;;) {
            while (const auto completion = device.poll())
                recordCompletion(*completion);
            if (!depthDirty)
                break;
            depthDirty = false;
            device.setMaxInflight(controller->depth());
        }
    };

    while (dispatched < numRequests) {
        // Idle host, or only capped classes waiting: advance to the
        // next arrival.
        if (generated < numRequests &&
            (dispatchQ.empty() ||
             (capped && pickEdf(true) == dispatchQ.size()))) {
            advanceTo(arrivals[generated].at);
            enqueueNextArrival();
        }
        // Eager completion: everything finished by now retires —
        // including mid-queue finishers — freeing device slots
        // without blocking the clock on a straggler.
        device.harvestDoneBy(device.deviceNow());
        drainCompletions();
        // Pull in every request that has arrived by now; they compete
        // in the EDF queue.
        while (generated < numRequests &&
               arrivals[generated].at <= device.deviceNow())
            enqueueNextArrival();

        std::size_t pick = pickEdf(true);
        if (pick == dispatchQ.size()) {
            if (generated < numRequests)
                continue;
            // No arrivals left and every waiting class is at its cap:
            // retire forward until the best waiting request's class is
            // under its cap, then hold the host clock to that class's
            // latest completion. Retiring is bookkeeping (the device
            // schedules engine work at submit), so delaying the issue
            // is what keeps a capped class from piling work onto the
            // shared engines: a serial per-class dispatcher.
            pick = pickEdf(false);
            const std::uint32_t cls = dispatchQ[pick].cls;
            while (!underCap(cls) && device.retireNext())
                drainCompletions();
            RMSSD_ASSERT(underCap(cls), "capped class cannot retire");
            advanceTo(perClass[cls].lastCompletion);
        }

        if (controller)
            controller->onBacklog(dispatchQ.size() - 1);
        const Queued q = dispatchQ[pick];
        dispatchQ.erase(dispatchQ.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        ClassState &cls = perClass[q.cls];
        const std::uint64_t tierHitsPre =
            tiered ? device.tierSliceHits() : 0;
        const std::uint64_t tierMissesPre =
            tiered ? device.tierSliceMisses() : 0;
        // The batch is drawn at dispatch, not at arrival: a backlog
        // then holds no sample vectors, and within a class dispatch
        // order is arrival order. A full device queue blocks inside
        // submit, which retires the oldest request itself (after a
        // host tier has charged its DRAM time).
        const engine::RequestId id = issue(q.cls);
        if (tiered) {
            cls.tierHits += device.tierSliceHits() - tierHitsPre;
            cls.tierMisses += device.tierSliceMisses() - tierMissesPre;
        }
        // Accept instant = submit return: the span and the
        // wait/service split start once the device owns the request.
        pending.emplace(id, Pending{q, device.deviceNow()});
        ++cls.inflight;
        depthOnSubmitSum += static_cast<double>(device.inflight());
        drainCompletions();
        cls.inflightSum += static_cast<double>(cls.inflight);
        ++dispatched;

        if (cached) {
            const std::uint64_t hits = device.cacheHits();
            const std::uint64_t misses = device.cacheMisses();
            const std::uint64_t reqHits = hits - hitsBase;
            const std::uint64_t reqMisses = misses - missesBase;
            hitsBase = hits;
            missesBase = misses;
            if (reqHits + reqMisses > 0)
                result.requestHitRatio.sample(
                    static_cast<double>(reqHits) /
                    static_cast<double>(reqHits + reqMisses));
            if (dispatched > numRequests / 2) {
                steadyHits += reqHits;
                steadyMisses += reqMisses;
            }
            if (config.replanThreshold > 0.0 &&
                config.replanCheckEvery > 0 &&
                dispatched % config.replanCheckEvery == 0)
                device.replanIfDrifted(config.replanThreshold);
        }
        if (config.migrateCheckEvery > 0 &&
            dispatched % config.migrateCheckEvery == 0)
            device.migrateIfDrifted();
    }
    drainCompletions();
    for (const engine::AsyncCompletion &completion : device.drain())
        recordCompletion(completion);
    RMSSD_ASSERT(pending.empty() && dispatchQ.empty() &&
                     completed == numRequests,
                 "serving loop left requests unaccounted");

    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
        return hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0;
    };
    const auto qps = [](std::uint64_t requests, Cycle end) {
        const double seconds = nanosToSeconds(cyclesToNanos(end));
        return seconds > 0.0 ? static_cast<double>(requests) / seconds
                             : 0.0;
    };
    result.offeredQps = config.arrivalQps;
    result.requests = numRequests;
    result.meanQueueDepth = timeWeightedDepth(spans);
    result.meanDepthOnSubmit =
        numRequests > 0
            ? depthOnSubmitSum / static_cast<double>(numRequests)
            : 0.0;
    result.achievedQps = qps(numRequests, lastCompletion);

    // Fleet-wide percentiles compose from the per-class recorders —
    // the merge path, not a parallel re-recording.
    LatencyRecorder all;
    for (const ClassState &cls : perClass)
        all.merge(cls.latency);
    result.meanLatency = all.mean();
    result.p50 = all.percentile(50.0);
    result.p95 = all.percentile(95.0);
    result.p99 = all.percentile(99.0);
    result.maxLatency = all.max();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const ClassState &st = perClass[i];
        ClassServingResult &cls = result.classes.emplace_back();
        cls.name = classes[i].name;
        cls.requests = st.latency.count();
        cls.deadlineMisses = st.misses;
        cls.p50 = st.latency.percentile(50.0);
        cls.p95 = st.latency.percentile(95.0);
        cls.p99 = st.latency.percentile(99.0);
        cls.maxLatency = st.latency.max();
        cls.meanLatency = st.latency.mean();
        cls.meanQueueWait = st.wait.mean();
        cls.achievedQps = qps(cls.requests, st.lastCompletion);
        cls.meanInflight =
            cls.requests > 0
                ? st.inflightSum / static_cast<double>(cls.requests)
                : 0.0;
        cls.tierHitRatio = ratio(st.tierHits, st.tierMisses);
    }
    result.depthAdjustments =
        controller ? controller->adjustments() : 0;
    result.finalDepth = device.maxInflight();

    result.steadyHitRatio = ratio(steadyHits, steadyMisses);
    result.replans = device.replanCount() - replansBefore;
    result.migratedPages =
        device.migratedPageCount() - migratedBefore;
    result.tierHitRatio =
        ratio(device.tierSliceHits() - tierHitsBefore,
              device.tierSliceMisses() - tierMissesBefore);
    return result;
}

namespace {

/**
 * Batch slots of the trace-ahead ring at @p batchSize samples a
 * batch: 16 samples, but never fewer than three batches. Three slots
 * let the producer sleep through two releases (one wake per two
 * batches) and still leave the consumer a batch ready when it wakes.
 */
std::uint32_t
traceAheadSlots(std::uint32_t batchSize)
{
    constexpr std::uint32_t kRingSamples = 16;
    return std::max<std::uint32_t>(3, kRingSamples /
                                          std::max(batchSize, 1u));
}

/**
 * A serving run's batches, drawn ahead on a second thread (DESIGN.md
 * §13.4). The producer owns the generator from construction to
 * destruction and draws batch r into slot r % slots once the consumer
 * has released batch r - slots. Two counters carry the handoff:
 * produced_ (batches drawn, written by the producer) and released_
 * (batches handed back, written by the consumer), so a slot's bytes
 * are complete before the other side sees its number. Every access is
 * sequentially consistent: notify skips the wake when it sees no
 * waiter, and only a full fence after the store keeps that check from
 * passing a waiter that read the old count. The producer sleeps on a
 * full ring and is woken once every wakeStride_ releases, so in
 * steady state neither side makes a system call per batch; after its
 * last draw it sleeps until the last release, then frees the ring.
 */
class TraceAhead
{
  public:
    TraceAhead(TraceGenerator &gen, std::uint32_t batchSize,
               std::uint32_t batches)
        : slots_(std::min(traceAheadSlots(batchSize), batches)),
          batches_(batches),
          wakeStride_(std::max<std::uint32_t>(2, slots_ / 2)),
          producer_([this, &gen, batchSize] { produce(gen, batchSize); })
    {
    }

    TraceAhead(const TraceAhead &) = delete;
    TraceAhead &operator=(const TraceAhead &) = delete;

    /**
     * Stops a producer still drawing (a loop unwinding early leaves
     * one asleep on a full ring); producer_ joins it.
     */
    ~TraceAhead()
    {
        released_.store(kStopped);
        released_.notify_one();
    }

    /**
     * The next batch in draw order; valid until release(). Rethrows a
     * failure to allocate the ring.
     */
    std::span<const model::Sample>
    acquire()
    {
        RMSSD_ASSERT(next_ < batches_, "more dispatches than batches drawn");
        std::uint32_t ready = produced_.load();
        while (ready <= next_) {
            produced_.wait(ready);
            ready = produced_.load();
        }
        if (ready == kStopped)
            std::rethrow_exception(failure_);
        return ring_[next_ % slots_];
    }

    /** Hand the acquired batch's slot back to the producer. */
    void
    release()
    {
        ++next_;
        released_.store(next_);
        if (next_ % wakeStride_ == 0 || next_ == batches_)
            released_.notify_one();
    }

  private:
    /**
     * A counter's value once its writer has stopped: released_ when
     * the consumer is gone, produced_ when the ring could not be
     * allocated.
     */
    static constexpr std::uint32_t kStopped =
        std::numeric_limits<std::uint32_t>::max();

    /** Wait until released_ reaches @p count or kStopped; returns it. */
    std::uint32_t
    awaitReleased(std::uint32_t count)
    {
        std::uint32_t done = released_.load();
        while (done < count) {
            released_.wait(done);
            done = released_.load();
        }
        return done;
    }

    /**
     * The ring is allocated, filled and freed on this thread, so its
     * buffers come from this thread's malloc arena: the caller's
     * later allocations never reuse lines that this core wrote last.
     * The first lap's fills size the slots; later laps allocate
     * nothing.
     */
    void
    produce(TraceGenerator &gen, std::uint32_t batchSize)
    {
        try {
            ring_.assign(slots_, std::vector<model::Sample>(batchSize));
            for (std::uint32_t r = 0; r < batches_; ++r) {
                std::uint32_t done = released_.load();
                if (done != kStopped && r - done >= slots_) {
                    // Full ring: sleep until the consumer's next wake
                    // point past the release that frees slot r % slots_.
                    const std::uint32_t need = r - slots_ + 1;
                    done = awaitReleased((need + wakeStride_ - 1) /
                                         wakeStride_ * wakeStride_);
                }
                if (done == kStopped)
                    break;
                for (model::Sample &sample : ring_[r % slots_])
                    gen.fill(sample);
                produced_.store(r + 1);
                produced_.notify_one();
            }
        } catch (...) {
            failure_ = std::current_exception();
            produced_.store(kStopped);
            produced_.notify_one();
            return;
        }
        // The consumer reads the slots until its last release.
        awaitReleased(batches_);
        ring_ = {};
    }

    const std::uint32_t slots_;
    const std::uint32_t batches_;
    const std::uint32_t wakeStride_;
    std::vector<std::vector<model::Sample>> ring_; //!< producer's
    std::exception_ptr failure_;
    std::uint32_t next_ = 0; //!< consumer only: batches acquired
    alignas(64) std::atomic<std::uint32_t> produced_{0};
    alignas(64) std::atomic<std::uint32_t> released_{0};
    // det-safe: the producer is the generator's only user until the
    // join and draws batches in the order the consumer takes them; the
    // ring moves the draw to another core, not its order. Declared
    // last: started after every other member, joined before they go.
    std::jthread producer_;
};

} // namespace

ServingResult
simulateServing(engine::InferenceDevice &device, TraceGenerator &gen,
                const ServingConfig &config)
{
    RMSSD_ASSERT(config.arrivalQps > 0.0, "non-positive arrival rate");
    const std::vector<ServingClass> &classes = config.slo.classes;
    double shareSum = 0.0;
    for (const ServingClass &cls : classes) {
        RMSSD_ASSERT(cls.share > 0.0, "non-positive class share");
        shareSum += cls.share;
    }
    // One RNG stream in arrival order — a gap per request, then its
    // class pick with two or more classes — so a class split
    // perturbs nothing else.
    Rng rng(config.seed);
    const double meanGapNanos = 1e9 / config.arrivalQps;
    double arrivalNanos = 0.0;
    std::vector<Arrival> arrivals(config.numRequests);
    for (Arrival &arrival : arrivals) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        arrivalNanos += -meanGapNanos * std::log(u);
        arrival.at = nanosToCycles(
            Nanos{static_cast<std::uint64_t>(arrivalNanos)});
        if (classes.size() > 1) {
            const double pick = rng.nextDouble() * shareSum;
            double acc = 0.0;
            arrival.cls = static_cast<std::uint32_t>(classes.size() - 1);
            for (std::size_t i = 0; i < classes.size(); ++i) {
                acc += classes[i].share;
                if (pick < acc) {
                    arrival.cls = static_cast<std::uint32_t>(i);
                    break;
                }
            }
        }
    }
    TraceAhead trace(gen, config.batchSize, config.numRequests);
    return simulateServing(
        device, arrivals,
        [&](std::uint32_t) {
            // The slot outlives submit as nextBatch's temporary did:
            // a device copies what it keeps of a request.
            const engine::RequestId id = device.submit(trace.acquire());
            trace.release();
            return id;
        },
        config);
}

} // namespace rmssd::workload
