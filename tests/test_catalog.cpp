/**
 * @file
 * Tests for the model/system catalog and the multi-tenant fleet:
 * every catalog entry builds and serves, a single-tenant TenantFleet
 * is a bit-exact passthrough over a bare device, lane-split tenants
 * match the withTableSubset reference, the isolation knobs (inflight
 * caps, cache/tier carves) enforce their contracts deterministically,
 * fleet bookkeeping holds under random operation sequences, and
 * malformed serving loads fail loudly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::catalog {
namespace {

/** Small functional model: tables load into flash in milliseconds. */
model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

/** A second tenant at twice the embedding dim (RMC2-shaped). */
model::ModelConfig
tinyWideConfig()
{
    model::ModelConfig config = model::rmc2().withRowsPerTable(512);
    config.numTables = 4;
    config.lookupsPerTable = 4;
    return config;
}

// ---- ModelCatalog ---------------------------------------------------

TEST(Catalog, BuiltinListsZooModelsAndPaperSystems)
{
    const ModelCatalog &c = ModelCatalog::builtin();
    for (const char *m : {"RMC1", "RMC2", "RMC3", "NCF", "WnD"})
        EXPECT_EQ(c.model(m).name, m);
    // The paper systems, then the fleet variants.
    const std::vector<std::string> names = c.systemNames();
    ASSERT_GE(names.size(), 12u);
    EXPECT_EQ(names.front(), "DRAM");
    for (const char *s : {"RM-SSD+part", "RM-SSD x2", "RM-SSD x4"})
        EXPECT_EQ(c.system(s).name, s);
}

TEST(Catalog, EverySystemEntryServesATinyTrace)
{
    const ModelCatalog &c = ModelCatalog::builtin();
    const model::ModelConfig config = tinyConfig();
    for (const std::string &name : c.systemNames()) {
        auto system = c.make(name, config);
        workload::TraceGenerator gen(config, workload::localityK(0.3));
        const workload::RunResult r = system->run(gen, 2, 3, 1);
        EXPECT_EQ(r.system, name);
        EXPECT_EQ(r.batches, 3u);
        EXPECT_GT(r.totalNanos.raw(), 0u) << name;
    }
}

TEST(Catalog, CacheVariantsShareOneRecipeShape)
{
    // The "+cache"/"+lfu"/"+part" entries fold the old copy-paste
    // blocks into one RmSsdCached recipe parameterized by a single
    // EvCacheConfig delta.
    const ModelCatalog &c = ModelCatalog::builtin();
    const SystemEntry &cache = c.system("RM-SSD+cache");
    const SystemEntry &lfu = c.system("RM-SSD+lfu");
    const SystemEntry &part = c.system("RM-SSD+part");
    for (const SystemEntry *e : {&cache, &lfu, &part})
        EXPECT_EQ(e->recipe.kind, SystemRecipe::Kind::RmSsdCached);
    EXPECT_EQ(cache.recipe.evCache.admission,
              engine::EvCacheAdmission::AlwaysAdmit);
    EXPECT_EQ(lfu.recipe.evCache.admission,
              engine::EvCacheAdmission::TinyLfu);
    EXPECT_FALSE(lfu.recipe.evenTableShares);
    EXPECT_TRUE(part.recipe.evenTableShares);
    EXPECT_EQ(part.recipe.evCache.admission,
              engine::EvCacheAdmission::TinyLfu);
}

TEST(Catalog, UnknownNamesDie)
{
    const model::ModelConfig config = tinyConfig();
    EXPECT_DEATH((void)makeSystem("no-such-system", config),
                 "unknown");
    EXPECT_DEATH((void)ModelCatalog::builtin().model("no-such-model"),
                 "unknown");
}

TEST(Catalog, UserCatalogRegistersModelsAndRecipes)
{
    ModelCatalog c;
    model::ModelConfig config = tinyConfig();
    config.name = "tiny";
    c.addModel(config);

    SystemEntry entry;
    entry.name = "tiny-dram";
    entry.recipe.kind = SystemRecipe::Kind::Dram;
    c.addSystem(entry);

    auto system = c.make("tiny-dram", "tiny");
    workload::TraceGenerator gen(config, workload::localityK(0.3));
    EXPECT_EQ(system->run(gen, 1, 2, 0).batches, 2u);
    EXPECT_DEATH(c.addModel(config), "duplicate");
}

// ---- Union layout ---------------------------------------------------

TEST(UnionLayout, SingleTenantPassesThroughVerbatim)
{
    TenantSpec spec;
    spec.id = "solo";
    spec.config = tinyConfig();
    const UnionLayout layout =
        buildUnionLayout(std::span<const TenantSpec>(&spec, 1), 99);
    EXPECT_TRUE(layout.passthrough);
    EXPECT_EQ(layout.config.name, spec.config.name);
    EXPECT_EQ(layout.config.seed, spec.config.seed); // not unionSeed
    ASSERT_EQ(layout.slots.size(), 1u);
    EXPECT_EQ(layout.lanes[0], 1u);
    for (std::uint32_t t = 0; t < spec.config.numTables; ++t)
        EXPECT_EQ(layout.slots[0][t], t);
}

TEST(UnionLayout, TwoTenantsLaneSplitAtMinDim)
{
    std::vector<TenantSpec> specs(2);
    specs[0].id = "narrow";
    specs[0].config = tinyConfig(); // 8 tables, dim 32
    specs[1].id = "wide";
    specs[1].config = tinyWideConfig(); // 4 tables, dim 64

    const UnionLayout layout = buildUnionLayout(specs, 7);
    EXPECT_FALSE(layout.passthrough);
    EXPECT_EQ(layout.config.embDim, 32u);
    EXPECT_EQ(layout.config.seed, 7u);
    EXPECT_EQ(layout.lanes[0], 1u);
    EXPECT_EQ(layout.lanes[1], 2u);
    // 8 narrow slots then 4*2 wide lanes, globally offset.
    ASSERT_EQ(layout.slots[0].size(), 8u);
    ASSERT_EQ(layout.slots[1].size(), 8u);
    EXPECT_EQ(layout.config.numTables, 16u);
    for (std::uint32_t t = 0; t < 8; ++t)
        EXPECT_EQ(layout.slots[0][t], t);
    for (std::uint32_t s = 0; s < 8; ++s)
        EXPECT_EQ(layout.slots[1][s], 8u + s);
    // Rows/lookups cover the biggest tenant.
    EXPECT_EQ(layout.config.rowsPerTable, 512u);
    EXPECT_EQ(layout.config.lookupsPerTable, 4u);
}

TEST(UnionLayout, IndivisibleDimsDie)
{
    std::vector<TenantSpec> specs(2);
    specs[0].id = "a";
    specs[0].config = tinyConfig();
    specs[0].config.embDim = 32;
    specs[1].id = "b";
    specs[1].config = tinyConfig();
    specs[1].config.name = "tiny48";
    specs[1].config.embDim = 48;
    EXPECT_DEATH((void)buildUnionLayout(specs, 1), "multiple");
}

// ---- TenantFleet ----------------------------------------------------

FleetOptions
functionalOptions()
{
    FleetOptions options;
    options.device.functional = true;
    return options;
}

/** Outstanding requests of tenant @p id, read from fleet @p stats. */
std::uint64_t
tenantInflight(const StatsRegistry &stats, const std::string &id)
{
    return stats.counterValue("fleet.tenant." + id + ".submitted") -
           stats.counterValue("fleet.tenant." + id + ".retired");
}

std::vector<TenantSpec>
twoTenants()
{
    std::vector<TenantSpec> specs(2);
    specs[0].id = "narrow";
    specs[0].config = tinyConfig();
    specs[0].trace = workload::localityK(0.3);
    specs[1].id = "wide";
    specs[1].config = tinyWideConfig();
    specs[1].trace = workload::localityK(0.3);
    return specs;
}

TEST(TenantFleetDeathTest, MoreDevicesThanUnionTablesIsFatal)
{
    const std::uint32_t unionTables =
        buildUnionLayout(twoTenants(), 1).config.numTables;
    FleetOptions options;
    options.numDevices = unionTables + 1;
    EXPECT_EXIT({ TenantFleet fleet(twoTenants(), options); },
                ::testing::ExitedWithCode(1),
                "FleetOptions::numDevices " +
                    std::to_string(unionTables + 1) + " exceeds the " +
                    std::to_string(unionTables) + " union tables");
}

TEST(TenantFleet, SingleTenantEqualsBareDeviceAtDepths1And4)
{
    const model::ModelConfig config = tinyConfig();
    for (const std::uint32_t depth : {1u, 4u}) {
        TenantSpec spec;
        spec.id = "solo";
        spec.config = config;
        spec.trace = workload::localityK(0.3);
        TenantFleet fleet({spec}, FleetOptions{});

        engine::RmSsd bare(config, engine::RmSsdOptions{});
        bare.loadTables();

        workload::ServingConfig sc;
        sc.arrivalQps = 500.0;
        sc.numRequests = 30;
        sc.queueDepth = depth;
        workload::TraceGenerator gen(config, workload::localityK(0.3));
        const workload::ServingResult a =
            workload::simulateServing(fleet, gen, sc);
        gen.reset();
        const workload::ServingResult b =
            workload::simulateServing(bare, gen, sc);

        EXPECT_EQ(a.meanLatency, b.meanLatency) << "depth " << depth;
        EXPECT_EQ(a.p99, b.p99) << "depth " << depth;
        EXPECT_EQ(a.achievedQps, b.achievedQps) << "depth " << depth;
        EXPECT_EQ(a.requests, b.requests);
    }
}

TEST(TenantFleet, SingleTenantFunctionalOutputsMatchBareDevice)
{
    const model::ModelConfig config = tinyConfig();
    TenantSpec spec;
    spec.id = "solo";
    spec.config = config;
    spec.trace = workload::localityK(0.3);
    TenantFleet fleet({spec}, functionalOptions());

    engine::RmSsdOptions bareOptions;
    bareOptions.functional = true;
    engine::RmSsd bare(config, bareOptions);
    bare.loadTables();

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const auto batch = gen.nextBatch(5);
    const auto fromFleet = fleet.inferTenant(0, batch);
    const auto fromBare = bare.infer(batch);
    ASSERT_EQ(fromFleet.outputs.size(), fromBare.outputs.size());
    for (std::size_t i = 0; i < fromBare.outputs.size(); ++i)
        EXPECT_EQ(fromFleet.outputs[i], fromBare.outputs[i]);
}

TEST(TenantFleet, LaneSplitPooledMatchesTableSubsetReference)
{
    TenantFleet fleet(twoTenants(), functionalOptions());
    ASSERT_EQ(fleet.numTenants(), 2u);

    for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
        const model::ModelConfig &tcfg = fleet.tenant(i).config;
        workload::TraceGenerator gen(tcfg, workload::localityK(0.3));
        const auto batch = gen.nextBatch(4);
        const auto fromFleet = fleet.inferTenant(i, batch);

        // Reference: a bare embedding-only device over the union
        // model's subset of this tenant's slots, fed the lane-expanded
        // index lists (the cluster's withTableSubset idiom).
        const model::ModelConfig sub =
            fleet.unionLayout().config.withTableSubset(
                fleet.tenantSlots(i));
        engine::RmSsdOptions refOptions;
        refOptions.variant = engine::EngineVariant::EmbeddingOnly;
        refOptions.functional = true;
        engine::RmSsd ref(sub, refOptions);
        ref.loadTables();

        const std::uint32_t lanes = fleet.unionLayout().lanes[i];
        std::vector<model::Sample> expanded(batch.size());
        for (std::size_t s = 0; s < batch.size(); ++s) {
            expanded[s].dense.assign(sub.denseInputDim(), 0.0f);
            expanded[s].indices.resize(sub.numTables);
            for (std::uint32_t t = 0; t < tcfg.numTables; ++t)
                for (std::uint32_t l = 0; l < lanes; ++l)
                    expanded[s].indices[t * lanes + l] =
                        batch[s].indices[t];
        }
        const auto fromRef = ref.infer(expanded);

        ASSERT_EQ(fromFleet.outputs.size(), fromRef.outputs.size())
            << "tenant " << i;
        for (std::size_t v = 0; v < fromRef.outputs.size(); ++v)
            EXPECT_EQ(fromFleet.outputs[v], fromRef.outputs[v])
                << "tenant " << i << " element " << v;
    }
}

TEST(TenantFleet, TwoTenantInterleavingIsDeterministic)
{
    FleetServingConfig sc;
    sc.loads.resize(2);
    sc.loads[0].arrivalQps = 800.0;
    sc.loads[0].numRequests = 40;
    sc.loads[1].arrivalQps = 400.0;
    sc.loads[1].numRequests = 20;
    sc.queueDepth = 4;

    auto run = [&] {
        TenantFleet fleet(twoTenants(), FleetOptions{});
        return simulateFleetServing(fleet, sc);
    };
    const workload::ServingResult a = run();
    const workload::ServingResult b = run();

    ASSERT_EQ(a.classes.size(), 2u);
    EXPECT_EQ(a.requests, 60u);
    EXPECT_EQ(a.offeredQps, 1200.0);
    EXPECT_EQ(a.achievedQps, b.achievedQps);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(a.classes[i].name, twoTenants()[i].id);
        EXPECT_EQ(a.classes[i].meanLatency, b.classes[i].meanLatency);
        EXPECT_EQ(a.classes[i].p99, b.classes[i].p99);
        EXPECT_EQ(a.classes[i].requests, sc.loads[i].numRequests);
        EXPECT_GT(a.classes[i].achievedQps, 0.0);
    }
}

TEST(TenantFleet, LoopCapBoundsATenantsOutstandingWork)
{
    // A burst of 12 wide-tenant requests at t = 0 ahead of six narrow
    // ones. The serving loop is the one place a tenant cap is
    // enforced: with the wide tenant capped at 2, its class sits out
    // of dispatch while the narrow tenant goes ahead, and once the
    // arrivals run out the rest of its burst issues on its own
    // completions. Every issue of a capped tenant must find it under
    // its cap.
    constexpr std::uint32_t kCap = 2;
    std::vector<workload::Arrival> arrivals;
    for (int r = 0; r < 12; ++r)
        arrivals.push_back({Cycle{0}, 1});
    for (std::uint64_t r = 1; r <= 6; ++r)
        arrivals.push_back({Cycle{r}, 0});

    const auto run = [&](std::uint32_t cap, std::uint64_t &peak) {
        TenantFleet fleet(twoTenants(), FleetOptions{});
        StatsRegistry stats;
        fleet.registerStats(stats);
        std::vector<workload::TraceGenerator> gens;
        for (std::size_t i = 0; i < fleet.numTenants(); ++i)
            gens.emplace_back(fleet.tenant(i).config,
                              fleet.tenant(i).trace);
        workload::ServingConfig sc;
        sc.queueDepth = 8;
        sc.slo.classes.resize(2);
        sc.slo.classes[0].name = "narrow";
        sc.slo.classes[1].name = "wide";
        sc.slo.classes[1].maxInflight = cap;
        peak = 0;
        const workload::ServingResult r = workload::simulateServing(
            fleet, arrivals,
            [&](std::uint32_t t) {
                if (cap > 0 && t == 1) {
                    EXPECT_LT(tenantInflight(stats, "wide"), cap);
                }
                const engine::RequestId id =
                    fleet.submitTenant(t, gens[t].nextBatch(1));
                peak = std::max(peak, tenantInflight(stats, "wide"));
                EXPECT_LE(fleet.inflight(), 8u);
                return id;
            },
            sc);
        EXPECT_EQ(r.requests, 18u);
        EXPECT_EQ(r.classes[1].requests, 12u);
        EXPECT_EQ(fleet.inflight(), 0u);
        EXPECT_EQ(stats.counterValue("fleet.tenant.wide.retired"), 12u);
        return r;
    };
    std::uint64_t cappedPeak = 0;
    std::uint64_t uncappedPeak = 0;
    const workload::ServingResult capped = run(kCap, cappedPeak);
    const workload::ServingResult uncapped = run(0, uncappedPeak);
    EXPECT_LE(cappedPeak, kCap);
    EXPECT_GT(uncappedPeak, kCap) << "the burst must exceed the cap";
    EXPECT_LE(capped.classes[1].meanInflight,
              static_cast<double>(kCap));
    EXPECT_LE(capped.classes[0].meanQueueWait,
              uncapped.classes[0].meanQueueWait)
        << "capping the burst must not slow the other tenant";
}

TEST(TenantFleet, CapsProtectVictimP99DuringCoTenantSpike)
{
    // Aggressor flash-crowd: 10x its base rate over the middle third
    // of its requests. With the aggressor uncapped it fills the shared
    // queue and the victim's dispatch waits behind its backlog; capped
    // at 2, the victim's p99 must stay close to its quiet-hours value.
    // Closed-loop fleet capacity in requests/s (batch 1, depth 8).
    const auto capacityQps = [](TenantFleet &fleet) {
        std::vector<workload::TraceGenerator> gens;
        for (std::size_t i = 0; i < fleet.numTenants(); ++i)
            gens.emplace_back(fleet.tenant(i).config,
                              fleet.tenant(i).trace);
        fleet.resetTiming();
        fleet.setMaxInflight(8);
        const Cycle start = fleet.deviceNow();
        const std::uint32_t requests = 64;
        for (std::uint32_t r = 0; r < requests; ++r)
            fleet.submitTenant(r % fleet.numTenants(),
                               gens[r % fleet.numTenants()].nextBatch(1));
        Cycle done = start;
        for (const engine::AsyncCompletion &c : fleet.drain())
            done = std::max(done, c.outcome.completionCycle);
        return static_cast<double>(requests) /
               nanosToSeconds(cyclesToNanos(done - start));
    };
    // Calibrate offered load once, on an uncapped fleet, so both
    // scenarios see the identical arrival processes.
    double capacity = 0.0;
    {
        TenantFleet probe(twoTenants(), FleetOptions{});
        capacity = capacityQps(probe);
    }
    const auto victimP99 = [&](std::uint32_t aggressorCap) {
        TenantFleet fleet(twoTenants(), FleetOptions{});

        FleetServingConfig sc;
        sc.loads.resize(2);
        sc.queueDepth = 8;
        sc.loads[0].arrivalQps = 0.15 * capacity;
        sc.loads[0].numRequests = 120;
        sc.loads[1].arrivalQps = 0.15 * capacity;
        sc.loads[1].numRequests = 120;
        sc.loads[1].spikeMultiplier = 10.0;
        sc.loads[1].spikeStartRequest = 40;
        sc.loads[1].spikeEndRequest = 80;
        sc.loads[1].maxInflight = aggressorCap;
        const workload::ServingResult r = simulateFleetServing(fleet, sc);
        return r.classes[0].p99.raw();
    };
    const std::uint64_t uncapped = victimP99(0);
    const std::uint64_t capped = victimP99(2);
    EXPECT_LT(capped, uncapped)
        << "caps should shield the victim tenant";
    EXPECT_LT(static_cast<double>(capped),
              0.8 * static_cast<double>(uncapped))
        << "protection should be substantial, not noise";
}

TEST(TenantFleet, TierBudgetsFollowSharesAndStayInPool)
{
    std::vector<TenantSpec> specs = twoTenants();
    specs[0].tierShare = 3.0;
    specs[1].tierShare = 1.0;
    FleetOptions options;
    options.hostTierBytes = Bytes{1u << 20};
    TenantFleet fleet(std::move(specs), options);

    const Bytes a = fleet.tenantTierBudget(0);
    const Bytes b = fleet.tenantTierBudget(1);
    EXPECT_LE(a.raw() + b.raw(), options.hostTierBytes.raw());
    // 3:1 carve, up to one row-slot of apportionment rounding.
    const double ratio = static_cast<double>(a.raw()) /
                         static_cast<double>(b.raw());
    EXPECT_NEAR(ratio, 3.0, 0.2);
    EXPECT_LE(fleet.tenantTierPlannedBytes(0).raw(), a.raw());
    EXPECT_LE(fleet.tenantTierPlannedBytes(1).raw(), b.raw());
}

TEST(TenantFleet, TierCountersCountOnlyTenantSlices)
{
    // A union sample carries empty index lists for every other
    // tenant's slots; those are no lookups of the tenant's. The
    // fleet's tier counters must count only the issuing tenant's own
    // table slices, so a serving run's tier hit ratio is the tenants'.
    FleetOptions options;
    options.hostTierBytes = Bytes{1u << 20};
    TenantFleet fleet(twoTenants(), options);
    ASSERT_NE(fleet.hostTier(), nullptr);
    StatsRegistry registry;
    fleet.registerStats(registry);

    workload::TraceGenerator gen0(fleet.tenant(0).config,
                                  fleet.tenant(0).trace);
    workload::TraceGenerator gen1(fleet.tenant(1).config,
                                  fleet.tenant(1).trace);
    fleet.inferTenant(0, gen0.nextBatch(4));
    const std::uint64_t slices0 = 4ull * fleet.tenant(0).config.numTables;
    EXPECT_EQ(fleet.tierSliceHits() + fleet.tierSliceMisses(), slices0);
    EXPECT_EQ(fleet.tierSliceHits(),
              registry.counterValue("fleet.tenant.narrow.tier.sliceHits"));

    fleet.inferTenant(1, gen1.nextBatch(2));
    const std::uint64_t slices1 = 2ull * fleet.tenant(1).config.numTables;
    EXPECT_EQ(fleet.tierSliceHits() + fleet.tierSliceMisses(),
              slices0 + slices1);
    EXPECT_EQ(fleet.tierSliceMisses(),
              registry.counterValue("fleet.tenant.narrow.tier.sliceMisses") +
                  registry.counterValue("fleet.tenant.wide.tier.sliceMisses"));
}

TEST(TenantFleet, StatsExportUnderTenantNamespaces)
{
    TenantFleet fleet(twoTenants(), FleetOptions{});
    StatsRegistry registry;
    fleet.registerStats(registry);

    workload::TraceGenerator gen0(fleet.tenant(0).config,
                                  workload::localityK(0.3));
    workload::TraceGenerator gen1(fleet.tenant(1).config,
                                  workload::localityK(0.3));
    fleet.inferTenant(0, gen0.nextBatch(2));
    fleet.inferTenant(0, gen0.nextBatch(2));
    fleet.inferTenant(1, gen1.nextBatch(3));

    EXPECT_EQ(registry.counterValue("fleet.tenant.narrow.submitted"),
              2u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.narrow.retired"),
              2u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.narrow.samples"),
              4u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.wide.submitted"),
              1u);
    EXPECT_EQ(registry.counterValue("fleet.tenant.wide.samples"), 3u);
    EXPECT_GT(
        registry.gaugeValue("fleet.tenant.narrow.latency.p99Nanos"),
        0u);
    EXPECT_GT(registry.counterValue("fleet.device.emb.lookups"), 0u);
}

TEST(TenantFleet, ClusterBackendServesBothTenants)
{
    FleetOptions options;
    options.numDevices = 2;
    TenantFleet fleet(twoTenants(), options);

    FleetServingConfig sc;
    sc.loads.resize(2);
    sc.loads[0].numRequests = 10;
    sc.loads[1].numRequests = 10;
    const workload::ServingResult r = simulateFleetServing(fleet, sc);
    EXPECT_EQ(r.requests, 20u);
    EXPECT_GT(r.classes[0].achievedQps, 0.0);
    EXPECT_GT(r.classes[1].achievedQps, 0.0);
}

TEST(TenantFleetFuzz, InvariantsHoldUnderRandomOps)
{
    // Seeded random interleavings of every fleet entry point, on a
    // single-device and a two-shard backend. After every operation the fleet's bookkeeping must
    // agree with an independent ledger kept here.
    for (const std::uint32_t devices : {1u, 2u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << devices << " device(s), seed " << seed);
            FleetOptions options;
            options.numDevices = devices;
            TenantFleet fleet(twoTenants(), options);
            fleet.setMaxInflight(4);
            StatsRegistry stats;
            fleet.registerStats(stats);

            std::vector<workload::TraceGenerator> gens;
            for (std::size_t i = 0; i < fleet.numTenants(); ++i)
                gens.emplace_back(fleet.tenant(i).config,
                                  fleet.tenant(i).trace);

            struct Issued
            {
                std::size_t tenant = 0;
                Cycle submitted;
                bool retired = false;
            };
            std::map<engine::RequestId, Issued> issued;
            std::vector<std::uint64_t> submittedPerTenant(
                fleet.numTenants(), 0);
            const auto complete =
                [&](const engine::AsyncCompletion &completion) {
                    const auto it = issued.find(completion.id);
                    ASSERT_NE(it, issued.end())
                        << "unknown id " << completion.id;
                    EXPECT_FALSE(it->second.retired)
                        << "id " << completion.id << " retired twice";
                    it->second.retired = true;
                    EXPECT_GE(completion.outcome.completionCycle,
                              it->second.submitted)
                        << "id " << completion.id;
                };
            const auto checkLedger = [&] {
                std::uint64_t sum = 0;
                for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
                    const std::string &id = fleet.tenant(i).id;
                    EXPECT_EQ(submittedPerTenant[i],
                              stats.counterValue("fleet.tenant." + id +
                                                 ".submitted"))
                        << "tenant " << i;
                    sum += tenantInflight(stats, id);
                }
                EXPECT_EQ(sum, fleet.inflight());
                EXPECT_LE(fleet.inflight(), fleet.maxInflight());
            };

            Rng rng(seed);
            for (int op = 0; op < 300; ++op) {
                const std::uint64_t action = rng.nextBounded(100);
                if (action < 45) {
                    const std::size_t i = rng.nextBounded(2);
                    const auto batch = gens[i].nextBatch(
                        1 + static_cast<std::uint32_t>(
                                rng.nextBounded(3)));
                    const Cycle before = fleet.deviceNow();
                    const engine::RequestId id =
                        fleet.submitTenant(i, batch);
                    ASSERT_EQ(issued.count(id), 0u) << "id reused";
                    issued[id] = Issued{i, before, false};
                    ++submittedPerTenant[i];
                } else if (action < 60) {
                    while (const auto completion = fleet.poll())
                        complete(*completion);
                } else if (action < 75) {
                    fleet.harvestDoneBy(
                        fleet.deviceNow() +
                        Cycle{rng.nextBounded(200000)});
                } else if (action < 87) {
                    fleet.retireNext();
                } else if (action < 95) {
                    fleet.setMaxInflight(
                        1 + static_cast<std::uint32_t>(
                                rng.nextBounded(6)));
                } else {
                    for (const auto &completion : fleet.drain())
                        complete(completion);
                    EXPECT_EQ(fleet.inflight(), 0u);
                }
                checkLedger();
            }
            for (const auto &completion : fleet.drain())
                complete(completion);
            checkLedger();
            EXPECT_EQ(fleet.inflight(), 0u);
            for (const auto &[id, entry] : issued)
                EXPECT_TRUE(entry.retired) << "id " << id << " lost";
            EXPECT_GT(issued.size(), 50u);
        }
    }
}

/**
 * Serve twoTenants() with tenant 1 spiking by @p multiplier over its
 * requests [@p start, @p end).
 */
void
serveWithSpike(double multiplier, std::uint32_t start, std::uint32_t end)
{
    TenantFleet fleet(twoTenants(), FleetOptions{});
    FleetServingConfig sc;
    sc.loads.resize(2);
    sc.loads[0].numRequests = 10;
    sc.loads[1].numRequests = 10;
    sc.loads[1].spikeMultiplier = multiplier;
    sc.loads[1].spikeStartRequest = start;
    sc.loads[1].spikeEndRequest = end;
    simulateFleetServing(fleet, sc);
}

TEST(FleetServingDeathTest, ZeroSpikeMultiplierDies)
{
    EXPECT_DEATH(serveWithSpike(0.0, 2, 6),
                 "spikeMultiplier must be positive");
}

TEST(FleetServingDeathTest, NegativeOrNanSpikeMultiplierDies)
{
    EXPECT_DEATH(serveWithSpike(-2.0, 2, 6),
                 "spikeMultiplier must be positive");
    EXPECT_DEATH(
        serveWithSpike(std::numeric_limits<double>::quiet_NaN(), 2, 6),
        "spikeMultiplier must be positive");
}

TEST(FleetServingDeathTest, InvertedSpikeWindowDies)
{
    EXPECT_DEATH(serveWithSpike(10.0, 6, 2),
                 "spike window ends before it starts");
}

} // namespace
} // namespace rmssd::catalog
