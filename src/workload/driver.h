/**
 * @file
 * Measurement types shared by the benchmark harness — the Fig. 2 time
 * breakdown categories and the per-run result record (throughput,
 * latency, I/O traffic, read amplification) — plus the two shared
 * loops every measurement builds on:
 *
 *  - runHostLoop():   host-clocked systems (DRAM, SSD-S/M, EMB-*,
 *                     RecSSD) serve one batch at a time and charge a
 *                     Breakdown; the driver owns the per-batch
 *                     accumulation all of them used to copy-paste.
 *  - runClosedLoop(): the one closed-loop probe of a device-clocked
 *                     backend (RM-SSD, clusters, tenant fleets): a
 *                     fixed request stream kept @c depth deep, timed
 *                     from its start to its last completion.
 *                     steadyStateQps() and the device-backed system's
 *                     run() are built on it.
 */

#ifndef RMSSD_WORKLOAD_DRIVER_H
#define RMSSD_WORKLOAD_DRIVER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/dlrm.h"
#include "sim/types.h"

namespace rmssd::engine {
class InferenceDevice;
} // namespace rmssd::engine

namespace rmssd::workload {

class TraceGenerator;

/** Fig. 2's execution-time breakdown categories. */
struct Breakdown
{
    Nanos topMlp;  //!< top MLP layers
    Nanos botMlp;  //!< bottom MLP layers
    Nanos concat;  //!< feature interaction
    Nanos embOp;   //!< userspace SLS operator
    Nanos embFs;   //!< kernel I/O stack (page cache, VFS)
    Nanos embSsd;  //!< device time (driver and below)
    Nanos other;   //!< framework/dispatch overhead ("others")

    Nanos total() const;
    Breakdown &operator+=(const Breakdown &o);
};

/** Outcome of running one system on one workload configuration. */
struct RunResult
{
    std::string system;
    std::uint64_t batches = 0;
    std::uint64_t samples = 0;
    Nanos totalNanos;
    Breakdown breakdown;
    /** Bytes moved from device to host during the measured run. */
    Bytes hostTrafficBytes;
    /** Ideal byte-addressable traffic: lookups * EVsize. */
    Bytes idealTrafficBytes;
    /**
     * Measured EV-cache hit ratio over the run's probe window; 0 for
     * systems without a device cache.
     */
    double cacheHitRatio = 0.0;

    /** Samples per second of simulated time. */
    double qps() const;
    /** Mean latency of one request batch. */
    Nanos latencyPerBatch() const;
    /** hostTraffic / ideal (Fig. 3's amplification; 1.0 = ideal). */
    double readAmplification() const;
};

/**
 * One measured batch of a host-clocked system: charge the batch's
 * cost to a Breakdown; systems that track host traffic per lookup add
 * it to @p result.hostTrafficBytes directly (the driver owns every
 * other RunResult field).
 */
using ServeBatchFn = std::function<Breakdown(
    const std::vector<model::Sample> &batch, RunResult &result)>;

/**
 * The measured loop shared by all host-clocked systems: pull
 * @p numBatches batches of @p batchSize from @p gen, charge each via
 * @p serveBatch and accumulate the RunResult (breakdown, wall-clock,
 * batch/sample counts, ideal traffic). Warm-up stays with the caller
 * — it is the one genuinely system-specific part of a run.
 */
RunResult runHostLoop(const std::string &system,
                      const model::ModelConfig &config,
                      TraceGenerator &gen, std::uint32_t batchSize,
                      std::uint32_t numBatches,
                      const ServeBatchFn &serveBatch);

/**
 * Span and counts of one closed-loop request stream: the device clock
 * at its start, its last completion, and what it issued.
 */
struct ClosedLoopRun
{
    /** Device clock when the stream started. */
    Cycle first;
    /** Latest completion cycle (first when nothing completed). */
    Cycle last;
    std::uint64_t requests = 0;
    std::uint64_t samples = 0;
    /** Sum of the requests' latencies. */
    Nanos latencySum;

    /** Requests per second of simulated time, first to last. */
    double requestsPerSecond() const;
    /** Samples per second of simulated time, first to last. */
    double samplesPerSecond() const;
};

/** Submit request @p r of a closed-loop stream to the device. */
using SubmitFn = std::function<void(std::uint32_t r)>;

/**
 * The closed-loop probe: keep @p depth requests in flight on
 * @p device, issuing request r = 0..@p requests-1 (each of
 * @p batchSize samples) through @p submit — `device.submit(batch)`, or
 * `fleet.submitTenant(t, batch)` for a tenant fleet — and collecting
 * completions with poll() as it goes, then drain(). poll() never moves
 * a device clock, so the run is the same as submitting everything and
 * draining once. The device is not reset: a probe of an idle device
 * calls resetTiming() first.
 */
ClosedLoopRun runClosedLoop(engine::InferenceDevice &device,
                            std::uint32_t depth, std::uint32_t requests,
                            std::uint32_t batchSize,
                            const SubmitFn &submit);

/**
 * Steady-state throughput in samples per second of @p device for a
 * continuous stream of requests of @p batchSize, one in flight, from
 * an idle device. The stream is deterministic: sample s of request r
 * is model().makeSample(r * 131071 + s).
 * @param measureBatches micro-batches in the measured window
 */
double steadyStateQps(engine::InferenceDevice &device,
                      std::uint32_t batchSize,
                      std::uint32_t measureBatches = 32);

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_DRIVER_H
