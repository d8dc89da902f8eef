#include "catalog/tenant_serving.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::catalog {

workload::ServingResult
simulateFleetServing(TenantFleet &fleet,
                     const FleetServingConfig &config)
{
    RMSSD_ASSERT(config.loads.size() == fleet.numTenants(),
                 "one TenantLoad per tenant required");
    const std::size_t n = fleet.numTenants();

    // Pre-compute every tenant's Poisson arrival times. Each tenant
    // derives its own RNG stream from the base seed, so adding a
    // tenant (or changing one's load) never perturbs the others'
    // arrival processes.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> timed;
    std::vector<workload::TraceGenerator> gens;
    workload::ServingConfig serving;
    serving.arrivalQps = 0.0;
    serving.queueDepth = config.queueDepth;
    for (std::size_t i = 0; i < n; ++i) {
        const TenantLoad &load = config.loads[i];
        RMSSD_ASSERT(load.arrivalQps > 0.0,
                     "non-positive arrival rate");
        // A zero multiplier would make the spike gap infinite; the
        // comparison also rejects NaN.
        RMSSD_ASSERT(load.spikeMultiplier > 0.0,
                     "spikeMultiplier must be positive");
        RMSSD_ASSERT(load.spikeStartRequest <= load.spikeEndRequest,
                     "spike window ends before it starts");
        Rng rng(config.seed ^
                (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) + 1)));
        double arrivalNanos = 0.0;
        for (std::uint32_t r = 0; r < load.numRequests; ++r) {
            const bool spiking = load.spikeMultiplier != 1.0 &&
                                 r >= load.spikeStartRequest &&
                                 r < load.spikeEndRequest;
            const double qps =
                spiking ? load.arrivalQps * load.spikeMultiplier
                        : load.arrivalQps;
            const double u = std::max(rng.nextDouble(), 1e-12);
            arrivalNanos += -(1e9 / qps) * std::log(u);
            timed.emplace_back(static_cast<std::uint64_t>(arrivalNanos),
                               static_cast<std::uint32_t>(i));
        }
        workload::ServingClass &cls = serving.slo.classes.emplace_back();
        cls.name = fleet.tenant(i).id;
        cls.maxInflight = load.maxInflight;
        serving.arrivalQps += load.arrivalQps;
        gens.emplace_back(fleet.tenant(i).config, fleet.tenant(i).trace);
    }
    // Merge by (nanos, tenant): a timestamp tie resolves by tenant
    // order, fully deterministic. Cycles only after the merge, so two
    // stamps that round to one cycle keep their nanosecond order.
    std::sort(timed.begin(), timed.end());
    std::vector<workload::Arrival> arrivals;
    arrivals.reserve(timed.size());
    for (const auto &[nanos, tenant] : timed)
        arrivals.push_back({nanosToCycles(Nanos{nanos}), tenant});
    return workload::simulateServing(
        fleet, arrivals,
        [&](std::uint32_t t) {
            return fleet.submitTenant(
                t, gens[t].nextBatch(config.loads[t].batchSize));
        },
        serving);
}

workload::ClosedLoopRun
fleetClosedLoop(TenantFleet &fleet)
{
    constexpr std::uint32_t kDepth = 8;
    constexpr std::uint32_t kRequests = 64;
    std::vector<workload::TraceGenerator> gens;
    for (std::size_t i = 0; i < fleet.numTenants(); ++i)
        gens.emplace_back(fleet.tenant(i).config, fleet.tenant(i).trace);
    fleet.resetTiming();
    return workload::runClosedLoop(
        fleet, kDepth, kRequests, 1, [&](std::uint32_t r) {
            const std::size_t t = r % fleet.numTenants();
            fleet.submitTenant(t, gens[t].nextBatch(1));
        });
}

} // namespace rmssd::catalog
