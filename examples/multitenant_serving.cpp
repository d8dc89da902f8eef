/**
 * @file
 * Multi-tenant serving walkthrough: colocate two catalog models on
 * one shared RM-SSD fleet via catalog::TenantFleet, print the union
 * layout the fleet built (embedding-id offsets + dim-lane split), the
 * per-tenant resource carve, and a two-tenant serving run with
 * per-tenant QPS and tail latency — once with the co-tenant spiking
 * uncapped, once with its inflight cap on.
 *
 * Usage: ./build/examples/multitenant_serving [devices]
 *        devices = shared fleet size (default 2)
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "model/model_zoo.h"
#include "workload/trace.h"

namespace {

using namespace rmssd;

std::vector<catalog::TenantSpec>
makeSpecs()
{
    std::vector<catalog::TenantSpec> specs(2);
    specs[0].id = "ncf";
    specs[0].config = model::ncf().withRowsPerTable(1ull << 16);
    specs[0].trace = workload::localityK(0.3);
    specs[0].trace.seed = 7;
    specs[0].tierShare = 3.0;
    specs[1].id = "wnd";
    specs[1].config = model::wnd().withRowsPerTable(1ull << 16);
    specs[1].trace = workload::localityK(0.3);
    specs[1].trace.seed = 11;
    specs[1].tierShare = 1.0;
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t numDevices =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 2;
    const std::vector<catalog::TenantSpec> specs = makeSpecs();
    // The seed sets table content only, not the union table count.
    const std::uint32_t unionTables =
        catalog::buildUnionLayout(specs, 0).config.numTables;
    if (numDevices == 0 || numDevices > unionTables) {
        std::printf("devices must be in [1, %u] (union tables)\n",
                    unionTables);
        return 1;
    }

    catalog::FleetOptions options;
    options.numDevices = numDevices;
    options.hostTierBytes = Bytes{32ull << 20};

    catalog::TenantFleet fleet(specs, options);

    // The union layout: every tenant table becomes one or more union
    // slots (wider dims split into lanes of the fleet dim).
    const catalog::UnionLayout &layout = fleet.unionLayout();
    std::printf("union model: %u slot(s), lane dim %u\n",
                layout.config.numTables, layout.config.embDim);
    for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
        const catalog::TenantSpec &spec = fleet.tenant(i);
        std::printf("  tenant %-4s: %2u table(s) x dim %-3u -> "
                    "%zu slot(s) (%u lane(s)/table), "
                    "tier budget %.1f MB\n",
                    spec.id.c_str(), spec.config.numTables,
                    spec.config.embDim, fleet.tenantSlots(i).size(),
                    layout.lanes[i],
                    static_cast<double>(
                        fleet.tenantTierBudget(i).raw()) /
                        (1024.0 * 1024.0));
    }

    const double capacity =
        catalog::fleetClosedLoop(fleet).requestsPerSecond();
    std::printf("\nshared fleet capacity ~ %.0f requests/s "
                "(%u device(s))\n",
                capacity, numDevices);

    // Steady tenant 0 + spiking tenant 1, with and without the
    // aggressor's inflight cap.
    std::printf("\n%-14s %-6s %12s %12s %10s %10s\n", "caps", "tenant",
                "offered", "achieved", "p99 (us)", "hit ratio");
    for (const std::uint32_t cap : {0u, 2u}) {
        catalog::TenantFleet run(makeSpecs(), options);
        catalog::FleetServingConfig sc;
        sc.queueDepth = 8;
        sc.loads.resize(2);
        sc.loads[0].arrivalQps = 0.15 * capacity;
        sc.loads[0].numRequests = 120;
        sc.loads[1].arrivalQps = 0.10 * capacity;
        sc.loads[1].numRequests = 120;
        sc.loads[1].spikeMultiplier = 8.0;
        sc.loads[1].spikeStartRequest = 40;
        sc.loads[1].spikeEndRequest = 80;
        sc.loads[1].maxInflight = cap;
        const workload::ServingResult r = simulateFleetServing(run, sc);
        for (std::size_t i = 0; i < 2; ++i) {
            std::printf("%-14s %-6s %12.0f %12.0f %10.1f %9.0f%%\n",
                        cap == 0 ? "off" : "aggressor<=2",
                        r.classes[i].name.c_str(),
                        sc.loads[i].arrivalQps,
                        r.classes[i].achievedQps,
                        static_cast<double>(r.classes[i].p99.raw()) /
                            1e3,
                        r.classes[i].tierHitRatio * 100.0);
        }
    }
    std::printf(
        "\nReading: both tenants share one union embedding space on "
        "the same device(s);\nthe DRAM tier and EV-cache are carved "
        "by share, and the aggressor's inflight cap\nkeeps its spike "
        "from queueing ahead of the steady tenant's dispatch.\n");
    return 0;
}
