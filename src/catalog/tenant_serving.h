/**
 * @file
 * Multi-tenant online-serving simulation: one Poisson arrival stream
 * per tenant — optionally with a flash-crowd spike window — merged
 * into one global FIFO against a shared TenantFleet, with per-tenant
 * tail-latency statistics.
 *
 * This is the multi-tenant twin of workload::simulateServing: same
 * arrival model, same latency accounting (request arrival to results
 * readable), but each tenant gets its own trace stream, its own
 * offered load, and its own recorder — the consolidation and
 * isolation experiments of Fig. 20 read per-victim p99 from here.
 */

#ifndef RMSSD_CATALOG_TENANT_SERVING_H
#define RMSSD_CATALOG_TENANT_SERVING_H

#include <cstdint>
#include <vector>

#include "catalog/tenant.h"
#include "sim/types.h"

namespace rmssd::catalog {

/** Offered load of one tenant. */
struct TenantLoad
{
    double arrivalQps = 1000.0;  //!< base arrival rate (requests/s)
    std::uint32_t batchSize = 1; //!< samples per request
    std::uint32_t numRequests = 200;
    /**
     * Flash-crowd window: this tenant's requests
     * [spikeStartRequest, spikeEndRequest) arrive at
     * arrivalQps * spikeMultiplier — the co-tenant spike the
     * per-tenant inflight caps are meant to contain. The multiplier
     * must be positive and the window must not end before it starts.
     */
    double spikeMultiplier = 1.0;
    std::uint32_t spikeStartRequest = 0;
    std::uint32_t spikeEndRequest = 0;
};

/** Configuration of one fleet serving experiment. */
struct FleetServingConfig
{
    /** One load per tenant (size must equal the fleet's). */
    std::vector<TenantLoad> loads;
    /** Requests kept in flight on the shared backend. */
    std::uint32_t queueDepth = 1;
    /** Base seed; each tenant's arrival stream derives its own. */
    std::uint64_t seed = 0x5e12e5ULL;
};

/** Per-tenant outcome of a fleet serving experiment. */
struct TenantServingResult
{
    double offeredQps = 0.0;  //!< base arrival rate (requests/s)
    double achievedQps = 0.0; //!< completed requests/s of sim time
    Nanos meanLatency;
    Nanos p50;
    Nanos p95;
    Nanos p99;
    Nanos maxLatency;
    std::uint64_t requests = 0;
    /** Tenant-attributed host-tier slice hit ratio over the run. */
    double tierHitRatio = 0.0;
    /** Mean tenant inflight observed right after each of its submits. */
    double meanInflight = 0.0;
};

/** Fleet-wide outcome. */
struct FleetServingResult
{
    std::vector<TenantServingResult> tenants;
    /** Completed requests/s across all tenants. */
    double achievedQps = 0.0;
    std::uint64_t requests = 0;
};

/**
 * Drive @p fleet with one merged Poisson arrival stream per tenant.
 * Arrivals interleave by timestamp (ties resolve by tenant order, so
 * runs are deterministic); each request's latency spans its arrival
 * to its results being readable on the host.
 */
FleetServingResult
simulateFleetServing(TenantFleet &fleet,
                     const FleetServingConfig &config);

} // namespace rmssd::catalog

#endif // RMSSD_CATALOG_TENANT_SERVING_H
