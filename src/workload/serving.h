/**
 * @file
 * Online-serving simulation: the one open-loop serving loop, over a
 * request arrival list against any InferenceDevice (a single RM-SSD,
 * a sharded cluster or a multi-tenant fleet), with tail-latency
 * statistics — the service-level agreement context that motivates
 * the paper ("to meet the strict service level agreement
 * requirements of recommendation systems").
 */

#ifndef RMSSD_WORKLOAD_SERVING_H
#define RMSSD_WORKLOAD_SERVING_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engine/inference_device.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "workload/depth_controller.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {

/** Latency sample collector with percentile queries. */
class LatencyRecorder
{
  public:
    void add(Nanos latency);

    /**
     * Fold @p other's samples into this recorder, so per-class or
     * per-tenant recorders compose into a fleet-wide percentile
     * without re-adding samples at the call sites.
     */
    void merge(const LatencyRecorder &other);

    std::size_t count() const { return samples_.size(); }
    /** Mean latency; Nanos{0} on an empty recorder. */
    Nanos mean() const;
    /** Largest latency; Nanos{0} on an empty recorder. */
    Nanos max() const;
    /**
     * Latency percentile; e.g. percentile(99.0) is the p99 latency.
     * @p p is clamped to [0, 100] (NaN clamps to 0); an empty
     * recorder returns Nanos{0}.
     */
    Nanos percentile(double p) const;

  private:
    mutable std::vector<Nanos> samples_;
    mutable bool sorted_ = true;
};

/** One request class of the serving loop (a priority class or a tenant). */
struct ServingClass
{
    std::string name = "default";
    /** Relative share of requests assigned to this class (Poisson form). */
    double share = 1.0;
    /** Dispatch priority: higher dispatches first (EDF within). */
    std::uint32_t priority = 0;
    /** Completion deadline budget from arrival; Nanos{0} = best-effort. */
    Nanos deadline{};
    /**
     * Inflight cap: at this many outstanding requests the class sits
     * out of dispatch while other classes go ahead. 0 = uncapped.
     */
    std::uint32_t maxInflight = 0;
};

/**
 * SLO control-plane knobs of the one serving loop. The defaults (one
 * best-effort class, a static depth) make it a FIFO open-loop server;
 * classes add priority/EDF dispatch with deadlines and per-class
 * inflight caps, and adaptiveDepth hands the device queue depth to a
 * DepthController.
 */
struct SloServingOptions
{
    /** No effect (one loop serves every config); set it nowhere new. */
    bool enabled = false;
    /**
     * Adaptive queue depth: a workload::DepthController walks the
     * device's maxInflight within [controller.minDepth,
     * controller.maxDepth] on its backlog and wait-share signals; it
     * has no latency target. Mutually exclusive with an explicit
     * ServingConfig::queueDepth sweep (> 1) — simulateServing asserts
     * rather than silently ignoring one of the two knobs.
     */
    bool adaptiveDepth = false;
    DepthControllerConfig controller;
    /**
     * Request classes; the Poisson form assigns each arrival a class
     * by share from the arrival RNG stream. Empty = one best-effort
     * class.
     */
    std::vector<ServingClass> classes;
};

/** Configuration of one serving experiment. */
struct ServingConfig
{
    double arrivalQps = 1000.0;  //!< offered load (requests/s)
    std::uint32_t batchSize = 1; //!< samples per request
    std::uint32_t numRequests = 200;
    std::uint64_t seed = 0x5e12e5ULL;
    /**
     * Static queue depth: requests kept in flight on the device
     * (submit/poll pipelining). 1 (the default) reproduces a serial
     * submit-then-poll host bit-for-bit; deeper queues overlap
     * request r+1's embedding lookups with request r's MLP tail, and
     * the loop reads each result as soon as it is ready, so a deeper
     * queue absorbs arrival bursts below saturation too. With
     * slo.adaptiveDepth the DepthController drives the depth at run
     * time instead; the two are mutually exclusive (asserted).
     */
    std::uint32_t queueDepth = 1;
    /** SLO control plane: priority classes and adaptive depth. */
    SloServingOptions slo;
    /**
     * Adaptive re-planning: every @p replanCheckEvery requests, call
     * InferenceDevice::replanIfDrifted with this threshold so the MLP
     * kernels re-balance when the measured hit ratio drifts from the
     * expectation the plan was sized against. 0 disables the check
     * (the default keeps existing experiments bit-identical).
     */
    double replanThreshold = 0.0;
    std::uint32_t replanCheckEvery = 32;
    /**
     * Background placement migration: every @p migrateCheckEvery
     * requests, call InferenceDevice::migrateIfDrifted so a
     * frequency-aware device can re-stripe a drifted hot set while
     * serving (the relocation traffic contends with foreground
     * reads). 0 (the default) disables the check.
     */
    std::uint32_t migrateCheckEvery = 0;
};

/** Per-class slice of a serving run. */
struct ClassServingResult
{
    std::string name;
    std::uint64_t requests = 0;
    /** Completions past arrival + class deadline (0 if best-effort). */
    std::uint64_t deadlineMisses = 0;
    Nanos p50;
    Nanos p95;
    Nanos p99;
    Nanos maxLatency;
    Nanos meanLatency;
    Nanos meanQueueWait;
    double achievedQps = 0.0; //!< requests/s to the class's last completion
    /** Mean class in-flight count after each of its submits. */
    double meanInflight = 0.0;
    /** Host-tier slice hit ratio over the class's issues (0 without a tier). */
    double tierHitRatio = 0.0;
};

/** Outcome of a serving experiment. */
struct ServingResult
{
    double offeredQps = 0.0;  //!< requested arrival rate (requests/s)
    double achievedQps = 0.0; //!< completed requests/s of sim time
    Nanos meanLatency;
    Nanos p50;
    Nanos p95;
    Nanos p99;
    Nanos maxLatency;
    std::uint64_t requests = 0;
    /**
     * EV-cache hit ratio per request (cache state carries across
     * requests, so the mean climbs as the cache warms; min is the
     * cold start). Empty when the device has no cache.
     */
    Distribution requestHitRatio;
    /**
     * Hit ratio over the second half of the run only — the
     * steady-state figure once the cache is warm. 0 without a cache.
     */
    double steadyHitRatio = 0.0;
    /** Adaptive re-plans triggered during the run. */
    std::uint64_t replans = 0;
    /**
     * Pages relocated by background migration during the run
     * (counter delta, so paced passes executing after the triggering
     * check still count).
     */
    std::uint64_t migratedPages = 0;
    /**
     * Host-tier slice hit ratio over the run: served slices /
     * intercepted slices. 0 when the device has no tier attached.
     */
    double tierHitRatio = 0.0;
    /**
     * Mean device queue occupancy, time-weighted from the first
     * dispatch to the last completion (each request counts from its
     * dispatch cycle to its completion cycle).
     */
    double meanQueueDepth = 0.0;
    /** Mean occupancy sampled right after each submit (legacy view). */
    double meanDepthOnSubmit = 0.0;
    /**
     * Host dispatch-queue wait per request, arrival to the return of
     * its submit (the `queue.waitNanos` breakdown; it includes any
     * block on submit's backpressure).
     */
    Distribution queueWaitNanos;
    /** Device service time per request, dispatch to completion. */
    Distribution serviceNanos;
    /** Deadline misses across all classes (classes with deadlines). */
    std::uint64_t deadlineMisses = 0;
    /** Per-class breakdown (one entry per class). */
    std::vector<ClassServingResult> classes;
    /** Depth-controller adjustments (with slo.adaptiveDepth). */
    std::uint64_t depthAdjustments = 0;
    /** Device queue depth when the run ended (controller's endpoint). */
    std::uint32_t finalDepth = 0;
};

/** One scheduled request arrival. */
struct Arrival
{
    Cycle at;
    std::uint32_t cls = 0; //!< index into the run's classes
};

/** Draws a class-@p cls batch and submits it; returns the device id. */
using IssueFn = std::function<engine::RequestId(std::uint32_t cls)>;

/**
 * The serving loop over a time-sorted arrival list. Arrived requests
 * park in a priority/EDF dispatch queue (FIFO with one class) where a
 * class at its cap sits out (once arrivals run out, the loop blocks on
 * that class's own completions); @p issue submits each at dispatch, and
 * finished requests are read as soon as they are ready. Latency spans
 * arrival to results readable on the host. config.numRequests and
 * config.seed are not read.
 */
ServingResult simulateServing(engine::InferenceDevice &device,
                              std::span<const Arrival> arrivals,
                              const IssueFn &issue,
                              const ServingConfig &config);

/**
 * The loop over Poisson arrivals drawn from Rng(config.seed): per
 * request one exponential gap, then (two or more classes) one class
 * pick by share. Dispatch r submits the generator's r-th batch of
 * config.batchSize samples, exactly what gen.nextBatch would return.
 *
 * A second thread draws the batches ahead (DESIGN.md §13.4): for the
 * length of the call it owns @p gen, drawing exactly
 * config.numRequests batches into a ring of reused batch slots (16
 * samples' worth, at least three batches, at most one per request),
 * and it is joined before the call returns or unwinds. The
 * caller must not touch @p gen meanwhile; afterwards @p gen is where
 * config.numRequests inline nextBatch calls would have left it.
 */
ServingResult simulateServing(engine::InferenceDevice &device,
                              TraceGenerator &gen,
                              const ServingConfig &config);

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_SERVING_H
