/**
 * @file
 * Multi-tenant online serving: the fleet's arrival source for the one
 * serving loop, workload::simulateServing. One Poisson stream per
 * tenant — optionally with a flash-crowd spike window — merges into
 * one arrival list; each tenant is one class of the loop (named by
 * tenant id, capped by TenantLoad::maxInflight), so the per-class
 * results are the per-tenant tails Fig. 20 reads.
 */

#ifndef RMSSD_CATALOG_TENANT_SERVING_H
#define RMSSD_CATALOG_TENANT_SERVING_H

#include <cstdint>
#include <vector>

#include "catalog/tenant.h"
#include "workload/driver.h"
#include "workload/serving.h"

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
    /**
     * Fair-share inflight cap on top of the backend's maxInflight
     * (the tenant's class cap, workload::ServingClass::maxInflight):
     * with this many of the tenant's requests outstanding, its
     * arrivals wait while other tenants dispatch. 0 = no cap (the
     * tenant may fill the whole queue).
     */
    std::uint32_t maxInflight = 0;
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

/**
 * Drive @p fleet with one merged Poisson arrival stream per tenant.
 * Arrivals interleave by timestamp (ties resolve by tenant order, so
 * runs are deterministic); each request's latency spans its arrival
 * to its results being readable on the host. The result has one
 * class per tenant, in tenant order; its offeredQps is the sum of the
 * tenants' base rates.
 */
workload::ServingResult
simulateFleetServing(TenantFleet &fleet,
                     const FleetServingConfig &config);

/**
 * Closed-loop capacity probe of @p fleet from an idle start: 64
 * single-sample requests, round-robin over the tenants, each drawn
 * from its tenant's own trace, 8 in flight.
 */
workload::ClosedLoopRun fleetClosedLoop(TenantFleet &fleet);

} // namespace rmssd::catalog

#endif // RMSSD_CATALOG_TENANT_SERVING_H
