/**
 * @file
 * Fig. 20 — Multi-tenant model fleet (extension beyond the paper):
 * heterogeneous tenants colocated on one shared RM-SSD x4 cluster via
 * the catalog's TenantFleet, against statically partitioned dedicated
 * fleets of the same total width.
 *
 * Three results:
 *  1. Consolidation: with asymmetric tenant traffic, the shared x4
 *     pool absorbs the heavy tenant's load while a static 2+2 split
 *     strands the light tenant's devices and saturates the heavy
 *     tenant's — the classic statistical-multiplexing win.
 *  2. Isolation: a flash-crowd spike on one tenant vs the victim's
 *     p99, with per-tenant inflight caps off and on. Caps bound the
 *     aggressor's outstanding work, so the victim's dispatch never
 *     queues behind the spike backlog.
 *  3. Shared-DRAM carve: sweeping the tierShare split of one host
 *     DRAM pool between the tenants moves each tenant's tier hit
 *     ratio and tail latency in opposite directions.
 *
 * Honesty notes: colocated table content is defined by the union
 * model (its fixed union seed), so multi-tenant runs are not
 * bit-comparable to a tenant's standalone content — only the
 * layout/shape mapping is exact (see test_catalog). The per-tenant
 * cap is the serving loop's class cap: a capped tenant's arrivals
 * wait while the other tenant dispatches, and once arrivals run out
 * its next issue waits for its own oldest completion.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "model/model_zoo.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

/** Scaled-down tenant models (fig19 scaling: tables load in ms). */
model::ModelConfig
tenantModel(bool wide)
{
    model::ModelConfig cfg = wide ? model::rmc2() : model::rmc1();
    cfg.withRowsPerTable(1ull << 16);
    return cfg;
}

/** Hot-head trace (fig19 style): first quarter of tables hammered. */
workload::TraceConfig
tenantTrace(const model::ModelConfig &cfg, std::uint64_t seed)
{
    workload::TraceConfig tc;
    tc.hotRowsPerTable = 4096;
    tc.hotAccessFraction = 0.5;
    tc.hotSkew = 2.0;
    tc.seed = seed;
    tc.tableHotFractions.assign(std::max(1u, cfg.numTables / 4), 1.0);
    return tc;
}

std::vector<catalog::TenantSpec>
makeSpecs()
{
    std::vector<catalog::TenantSpec> specs(2);
    specs[0].id = "rmc1";
    specs[0].config = tenantModel(false);
    specs[0].trace = tenantTrace(specs[0].config, 0x20aULL);
    specs[1].id = "rmc2";
    specs[1].config = tenantModel(true);
    specs[1].trace = tenantTrace(specs[1].config, 0x20bULL);
    return specs;
}

void
addTenantRows(bench::TextTable &table, const std::string &label,
              const catalog::FleetServingConfig &load,
              const workload::ServingResult &r)
{
    for (std::size_t i = 0; i < r.classes.size(); ++i) {
        const workload::ClassServingResult &t = r.classes[i];
        table.addRow({label, t.name,
                      bench::fmt(load.loads[i].arrivalQps, 0),
                      bench::fmt(t.achievedQps, 0),
                      bench::fmt(t.p99.raw() / 1e3, 1),
                      bench::fmt(t.meanInflight, 2)});
    }
}

void
runFigure()
{
    bench::banner("Fig. 20 - Multi-tenant model fleet",
                  "RMC1+RMC2 colocated on one RM-SSD x4 vs dedicated "
                  "2+2 fleets; caps; shared DRAM carve");

    // --- Table 1: consolidation vs static partitioning -------------
    catalog::FleetOptions shared;
    shared.numDevices = 4;
    catalog::TenantFleet consolidated(makeSpecs(), shared);
    const double capacity =
        catalog::fleetClosedLoop(consolidated).requestsPerSecond();

    // Calibrate each tenant's *dedicated* half-fleet, then offer the
    // heavy tenant 30% more than its static half can serve while the
    // light tenant idles at 20% — the asymmetric day static
    // partitioning cannot follow. The shared x4 absorbs it: the light
    // tenant's stranded devices serve the heavy tenant's overflow.
    catalog::FleetOptions half;
    half.numDevices = 2;
    // The union layout of one tenant passes through verbatim; pin the
    // variant so both columns measure the embedding service.
    half.device.variant = engine::EngineVariant::EmbeddingOnly;
    double dedicatedCapacity[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < 2; ++i) {
        catalog::TenantFleet probe({makeSpecs()[i]}, half);
        dedicatedCapacity[i] =
            catalog::fleetClosedLoop(probe).requestsPerSecond();
    }

    catalog::FleetServingConfig load;
    load.queueDepth = 8;
    load.loads.resize(2);
    load.loads[0].arrivalQps = 1.30 * dedicatedCapacity[0];
    load.loads[0].numRequests = 160;
    load.loads[1].arrivalQps = 0.20 * dedicatedCapacity[1];
    load.loads[1].numRequests = 40;

    bench::TextTable consolidation({"fleet", "tenant", "offered QPS",
                                    "achieved QPS", "p99 (us)",
                                    "mean inflight"});
    consolidation.setCaption("consolidated x4 vs dedicated 2+2");
    const workload::ServingResult onShared =
        simulateFleetServing(consolidated, load);
    addTenantRows(consolidation, "consolidated x4", load, onShared);

    double dedicatedHeavyP99 = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
        catalog::TenantFleet dedicated({makeSpecs()[i]}, half);
        catalog::FleetServingConfig solo;
        solo.queueDepth = 8;
        solo.loads = {load.loads[i]};
        const workload::ServingResult r =
            simulateFleetServing(dedicated, solo);
        addTenantRows(consolidation, "dedicated x2", solo, r);
        if (i == 0)
            dedicatedHeavyP99 = r.classes[0].p99.raw() / 1e3;
    }
    consolidation.print();
    const double consolidatedHeavyP99 =
        onShared.classes[0].p99.raw() / 1e3;
    std::printf("\nConsolidation: heavy-tenant p99 %.1f us on the "
                "shared x4 vs %.1f us on its dedicated x2 "
                "(%.2fx)\n\n",
                consolidatedHeavyP99, dedicatedHeavyP99,
                dedicatedHeavyP99 / consolidatedHeavyP99);

    // --- Table 2: flash-crowd isolation ----------------------------
    bench::TextTable isolation({"caps", "victim p99 (us)",
                                "victim max (us)",
                                "aggressor p99 (us)",
                                "aggressor achieved QPS"});
    isolation.setCaption("aggressor spike x8 vs victim tail");
    double victimP99Off = 0.0;
    double victimP99On = 0.0;
    for (const std::uint32_t cap : {0u, 2u}) {
        catalog::TenantFleet fleet(makeSpecs(), shared);

        catalog::FleetServingConfig sc;
        sc.queueDepth = 8;
        sc.loads.resize(2);
        sc.loads[0].arrivalQps = 0.15 * capacity; // victim
        sc.loads[0].numRequests = 120;
        sc.loads[1].arrivalQps = 0.10 * capacity; // aggressor
        sc.loads[1].numRequests = 120;
        sc.loads[1].spikeMultiplier = 8.0;
        sc.loads[1].spikeStartRequest = 40;
        sc.loads[1].spikeEndRequest = 80;
        sc.loads[1].maxInflight = cap; // aggressor
        const workload::ServingResult r =
            simulateFleetServing(fleet, sc);
        const double vp99 = r.classes[0].p99.raw() / 1e3;
        if (cap == 0)
            victimP99Off = vp99;
        else
            victimP99On = vp99;
        isolation.addRow(
            {cap == 0 ? "off" : "aggressor <= 2",
             bench::fmt(vp99, 1),
             bench::fmt(r.classes[0].maxLatency.raw() / 1e3, 1),
             bench::fmt(r.classes[1].p99.raw() / 1e3, 1),
             bench::fmt(r.classes[1].achievedQps, 0)});
    }
    isolation.print();
    std::printf("\nAcceptance: caps protect the victim p99 by %.2fx "
                "during the spike (bar: >= 1.25x)\n\n",
                victimP99Off / victimP99On);

    // --- Table 3: shared host-DRAM pool carve ----------------------
    bench::TextTable carve({"tierShare", "tenant", "budget MB",
                            "resident MB", "tier hit%", "p99 (us)"});
    carve.setCaption("shared DRAM pool, per-tenant carve");
    struct Split
    {
        const char *label;
        double a;
        double b;
    };
    for (const Split split :
         {Split{"75/25", 3.0, 1.0}, Split{"50/50", 1.0, 1.0},
          Split{"25/75", 1.0, 3.0}}) {
        std::vector<catalog::TenantSpec> specs = makeSpecs();
        specs[0].tierShare = split.a;
        specs[1].tierShare = split.b;
        catalog::FleetOptions tiered;
        tiered.numDevices = 1;
        const std::uint64_t poolBytes =
            (specs[0].config.embeddingBytes() +
             specs[1].config.embeddingBytes()) /
            16;
        tiered.hostTierBytes = Bytes{poolBytes};
        catalog::TenantFleet fleet(std::move(specs), tiered);
        const double soloCapacity =
            catalog::fleetClosedLoop(fleet).requestsPerSecond();

        catalog::FleetServingConfig sc;
        sc.queueDepth = 4;
        sc.loads.resize(2);
        sc.loads[0].arrivalQps = 0.10 * soloCapacity;
        sc.loads[0].numRequests = 120;
        sc.loads[1].arrivalQps = 0.03 * soloCapacity;
        sc.loads[1].numRequests = 30;
        const workload::ServingResult r =
            simulateFleetServing(fleet, sc);
        for (std::size_t i = 0; i < 2; ++i) {
            carve.addRow(
                {split.label, fleet.tenant(i).id,
                 bench::fmt(fleet.tenantTierBudget(i).raw() /
                                (1024.0 * 1024.0),
                            1),
                 bench::fmt(fleet.tenantTierPlannedBytes(i).raw() /
                                (1024.0 * 1024.0),
                            1),
                 bench::fmt(r.classes[i].tierHitRatio * 100.0, 1),
                 bench::fmt(r.classes[i].p99.raw() / 1e3, 1)});
        }
    }
    carve.print();
    std::printf("\nExpected shape: each tenant's tier hit ratio moves "
                "with its carve share, and the per-tenant budgets "
                "always sum to within the shared pool.\n");
}

void
BM_FleetSubmitDrain(benchmark::State &state)
{
    catalog::FleetOptions options;
    catalog::TenantFleet fleet(makeSpecs(), options);
    std::vector<workload::TraceGenerator> gens;
    for (std::size_t i = 0; i < fleet.numTenants(); ++i)
        gens.emplace_back(fleet.tenant(i).config,
                          fleet.tenant(i).trace);
    fleet.setMaxInflight(4);
    for (auto _ : state) {
        for (std::uint32_t r = 0; r < 4; ++r)
            fleet.submitTenant(r % 2, gens[r % 2].nextBatch(1));
        benchmark::DoNotOptimize(fleet.drain().size());
    }
}
BENCHMARK(BM_FleetSubmitDrain);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
