/**
 * @file
 * The benchmark's four workloads: how each system is built and
 * provisioned, which trace it serves, and the frozen rate points it is
 * measured at. tools/perf/README.md explains why each one exists.
 */

#ifndef RMSSD_PERF_WORKLOADS_H
#define RMSSD_PERF_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/inference_device.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::perf {

class Tracer;
struct System;

/** Static description of one workload. */
struct WorkloadSpec
{
    std::string name;
    /**
     * Requests at the low and high rate points, whose latency
     * percentiles are reported (>= 1000, so >= 10 samples lie beyond
     * p99); and at each step of the max_qps_slo bisection, whose p99
     * only has to place the step on either side of the limit.
     */
    std::uint32_t numRequests = 1000;
    std::uint32_t bisectRequests = 1000;
    std::uint32_t batchSize = 1;
    /**
     * Saturation rate in requests per simulated second, measured once
     * at the default seed on an unmodified build and frozen: the fixed
     * low and high rate points are 0.5x and 0.6x of it, and the
     * max_qps_slo bisection spans 0.25x to 1.25x of it.
     */
    double satRefQps = 0.0;
    /**
     * Latency limit on p99: the default seed's p99 at 0.8x saturation
     * (median over its replicas), rounded, where latency climbs
     * steeply with load.
     */
    double sloP99Us = 0.0;
    Nanos sloLimit() const
    {
        return Nanos{static_cast<std::uint64_t>(sloP99Us * 1e3)};
    }
    double loQps() const { return 0.5 * satRefQps; }
    double hiQps() const { return 0.6 * satRefQps; }
    /** Functional outputs exist and are checked against the host DLRM. */
    bool checkOutputs = false;
    /** Construct and provision the system (see buildSystem). */
    void (*build)(System &system, std::uint64_t seed, Tracer *tracer) =
        nullptr;
};

/** The workload named @p name; nullptr when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Host seconds spent in each set-up phase of one system. */
struct SetupTimes
{
    double buildS = 0.0;     //!< construction and kernel search
    double provisionS = 0.0; //!< tables, placement, host tier
    double warmupS = 0.0;    //!< warm-up requests
    double total() const { return buildS + provisionS + warmupS; }
};

/** One freshly built system, ready to warm up and serve. */
struct System
{
    std::unique_ptr<engine::InferenceDevice> device;
    /** Model of the device (the reference for output checks). */
    model::ModelConfig model;
    /** The serving trace; the warm-up consumes its head. */
    workload::TraceConfig trace;
    std::unique_ptr<workload::TraceGenerator> gen;
    /** Serving settings; rate and request count are set per point. */
    workload::ServingConfig serving;
    /** Requests of serving.batchSize replayed before timing. */
    std::uint32_t warmupRequests = 0;
    SetupTimes setup;
};

/**
 * Build and provision a fresh system of workload @p spec with inputs
 * derived from @p seed (build and provision phases timed, spans into
 * @p tracer when non-null). Warm-up is separate: see warmUp.
 */
System buildSystem(const WorkloadSpec &spec, std::uint64_t seed,
                   Tracer *tracer);

/** Run the system's warm-up requests through @p front (timed). */
void warmUp(System &system, engine::InferenceDevice &front,
            Tracer *tracer);

} // namespace rmssd::perf

#endif // RMSSD_PERF_WORKLOADS_H
