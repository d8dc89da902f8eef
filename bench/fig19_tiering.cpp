/**
 * @file
 * Fig. 19 — Host-DRAM embedding tier (extension beyond the paper):
 * QPS and p99 latency of the bare device versus the same device
 * behind a hotness-provisioned host tier, swept over the DRAM budget
 * (0, 1/64, 1/16 and 1/4 of the embedding bytes) and the device-side
 * EV cache, on RMC1 and RMC2.
 *
 * Why the tier moves the needle: the device is die-bound on EV reads
 * (Fig. 18), and the tier removes whole table slices from the request
 * before they ever reach the device — fewer flash reads, fewer
 * EV-translator issue slots, and a smaller input DMA. Serving is
 * all-or-nothing per (sample, table) slice so the merged pooled sums
 * stay byte-exact, which makes partial hot-set residency worthless
 * for long pooling chains (0.98^80 is still ~0.2): the budget sweep
 * shows a step once a hammered table's whole hot set fits, then
 * diminishing returns — the remaining traffic is cold-tail by
 * construction and no DRAM budget can learn it from the heat profile.
 *
 * The second table shows the interaction with the device EV cache:
 * once the tier absorbs the hot head, the cache's planned hit ratio
 * is stale (the kernels were searched for a traffic mix that no
 * longer reaches the device) and the adaptive re-plan re-searches the
 * MLP kernels against the residual stream.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

/**
 * Scaled-down RMC tables: the budget fractions must bracket the hot
 * set for the sweep to show its step (with the paper's 30 GB tables
 * even 1/64 of the embedding bytes swallows any plausible hot set and
 * every non-zero budget measures the same device).
 */
model::ModelConfig
scaledModel(bool rmc2)
{
    model::ModelConfig cfg = rmc2 ? model::rmc2() : model::rmc1();
    cfg.withRowsPerTable(rmc2 ? (1ull << 16) : (1ull << 18));
    return cfg;
}

/**
 * Hot-head trace: the first quarter of the tables is hammered (all
 * lookups in the hot set — a candidate for full interception), the
 * rest serve half their lookups from the cold tail.
 */
workload::TraceConfig
hotHeadTrace(const model::ModelConfig &cfg,
             std::uint64_t seed = 0x71e19ULL)
{
    workload::TraceConfig tc;
    tc.hotRowsPerTable = cfg.numTables > 8 ? 4096 : 16384;
    tc.hotAccessFraction = 0.5;
    tc.hotSkew = 2.0;
    tc.seed = seed;
    tc.tableHotFractions.assign(cfg.numTables / 4, 1.0);
    return tc;
}

std::unique_ptr<engine::RmSsd>
makeDevice(const model::ModelConfig &cfg,
           const engine::EvCacheConfig &cache,
           engine::EngineVariant variant =
               engine::EngineVariant::EmbeddingOnly)
{
    engine::RmSsdOptions opt;
    // The tier offloads the flash side, so the headline sweep
    // measures the SLS operator itself (MLP on the host): with the
    // full engine RMC1 is MLP-bound and embedding offload cannot move
    // QPS by construction. The interaction table uses Searched.
    opt.variant = variant;
    opt.evCache = cache;
    auto dev = std::make_unique<engine::RmSsd>(cfg, opt);
    dev->loadTables();
    return dev;
}

/** A tier budget of the sweep, as a fraction of the embedding bytes. */
struct Budget
{
    double fraction;
    const char *label;
};

constexpr std::array<Budget, 3> kBudgets{
    {{1.0 / 64, "1/64"}, {1.0 / 16, "1/16"}, {1.0 / 4, "1/4"}}};

/** The tier planner's view of a trace: table shares and row heats. */
struct HeatProfile
{
    std::vector<double> shares;
    std::vector<engine::RowHeat> heats;
};

HeatProfile
profileTrace(const model::ModelConfig &cfg, const workload::TraceConfig &tc)
{
    workload::TraceGenerator heat(cfg, tc);
    return {workload::planTierShares(heat.tableHistograms(4096)),
            heat.hotRowHeats()};
}

/** Tier plan for @p fraction of the embedding bytes. */
engine::TierPlan
planTier(const model::ModelConfig &cfg, const HeatProfile &profile,
         double fraction)
{
    return engine::planHostTier(
        cfg.rowsPerTable, Bytes{cfg.vectorBytes()}, profile.shares,
        profile.heats,
        Bytes{static_cast<std::uint64_t>(
            static_cast<double>(cfg.embeddingBytes()) * fraction)});
}

/** Provision a tier on @p dev from @p plan and attach it. */
std::shared_ptr<host::EmbeddingTier>
attachTier(engine::RmSsd &dev, const engine::TierPlan &plan)
{
    auto tier = std::make_shared<host::EmbeddingTier>(dev.model());
    tier->provision(plan);
    dev.attachHostTier(tier);
    return tier;
}

struct Measured
{
    double qps = 0.0;
    workload::ServingResult serving;
};

Measured
measure(engine::RmSsd &dev, const workload::TraceConfig &tc,
        double arrivalQps, double replanThreshold = 0.0)
{
    const model::ModelConfig &cfg = dev.model().config();
    Measured m;
    m.qps = bench::traceProbe(dev, tc).samplesPerSecond();
    workload::TraceGenerator gen(cfg, tc);
    workload::ServingConfig sc;
    sc.arrivalQps = arrivalQps;
    sc.batchSize = 4;
    sc.numRequests = 160;
    sc.queueDepth = 4;
    sc.replanThreshold = replanThreshold;
    sc.replanCheckEvery = 16;
    m.serving = workload::simulateServing(dev, gen, sc);
    return m;
}

void
runFigure()
{
    bench::banner("Fig. 19 - Host-DRAM embedding tier",
                  "device vs hotness-tiered DRAM/SSD placement "
                  "(batch 4, depth 4)");

    // --- Table 1: DRAM budget x cache sweep -----------------------
    bench::TextTable sweep({"model", "cache", "budget", "resident MB",
                            "tier hit%", "QPS", "p99 (us)",
                            "QPS gain", "p99 gain"});
    sweep.setCaption("DRAM budget sweep");
    double acceptQpsGain = 0.0;
    double acceptP99Gain = 0.0;
    engine::TierPlan acceptPlan;
    for (const bool rmc2 : {false, true}) {
        const model::ModelConfig cfg = scaledModel(rmc2);
        const workload::TraceConfig tc = hotHeadTrace(cfg);
        // One heat profile per model, one plan per budget: every
        // device provisioned at a budget shares its plan.
        const HeatProfile profile = profileTrace(cfg, tc);
        std::vector<engine::TierPlan> plans;
        for (const Budget &b : kBudgets)
            plans.push_back(planTier(cfg, profile, b.fraction));
        for (const std::uint64_t cacheDiv : {0ull, 16ull}) {
            engine::EvCacheConfig cache;
            if (cacheDiv > 0)
                cache = bench::cacheForTrace(cfg, tc, cacheDiv);
            const auto addRow = [&](const char *label, double residentMb,
                                    const Measured &m, double qpsGain,
                                    double p99Gain) {
                sweep.addRow({cfg.name, cacheDiv == 0 ? "none" : "/16",
                              label, bench::fmt(residentMb, 1),
                              bench::fmt(m.serving.tierHitRatio * 100.0, 1),
                              bench::fmt(m.qps, 0),
                              bench::fmt(m.serving.p99.raw() / 1e3, 1),
                              bench::fmt(qpsGain, 3) + "x",
                              bench::fmt(p99Gain, 3) + "x"});
            };
            // Same offered load at every budget — a fixed fraction of
            // the bare device's capacity — so p99 differences are
            // purely the tier's doing.
            double offeredQps = 0.0;
            Measured base;
            {
                auto dev = makeDevice(cfg, cache);
                offeredQps =
                    bench::traceProbe(*dev, tc, 8).samplesPerSecond() * 0.7;
                base = measure(*dev, tc, offeredQps);
            }
            addRow("0", 0.0, base, 1.0, 1.0);
            for (std::size_t i = 0; i < kBudgets.size(); ++i) {
                auto dev = makeDevice(cfg, cache);
                const auto tier = attachTier(*dev, plans[i]);
                const Measured m = measure(*dev, tc, offeredQps);
                const double qpsGain =
                    base.qps > 0.0 ? m.qps / base.qps : 1.0;
                const double p99Gain =
                    m.serving.p99.raw() > 0
                        ? static_cast<double>(base.serving.p99.raw()) /
                              static_cast<double>(m.serving.p99.raw())
                        : 1.0;
                if (!rmc2 && cacheDiv == 0 &&
                    kBudgets[i].fraction == 1.0 / 16) {
                    acceptQpsGain = qpsGain;
                    acceptP99Gain = p99Gain;
                    acceptPlan = plans[i];
                }
                addRow(kBudgets[i].label,
                       static_cast<double>(tier->residentBytes().raw()) /
                           (1024.0 * 1024.0),
                       m, qpsGain, p99Gain);
            }
        }
    }
    sweep.print();
    std::printf("\nAcceptance (RMC1, no cache, 1/16 budget): "
                "QPS gain %.3fx, p99 gain %.3fx (bar: >=1.15x QPS or "
                ">=1.15x p99)\n\n",
                acceptQpsGain, acceptP99Gain);

    // --- Table 2: interaction with the device EV cache ------------
    // The cache's kernel plan was searched against the full trace;
    // with the hot head served on the host the device only ever sees
    // the residual mix and the plan is stale until re-searched.
    bench::TextTable interact({"config", "planned hit%",
                               "steady hit%", "replans", "QPS",
                               "p99 (us)"});
    interact.setCaption("RMC1 EV-cache re-tuning with the tier on");
    const model::ModelConfig cfg = scaledModel(false);
    const workload::TraceConfig tc = hotHeadTrace(cfg);
    const engine::EvCacheConfig cache = bench::cacheForTrace(cfg, tc, 16);

    struct Scenario
    {
        const char *label;
        bool tiered;
        double replanThreshold;
    };
    double load = 0.0;
    for (const Scenario sc :
         {Scenario{"no tier", false, 0.0},
          Scenario{"tier 1/16 (stale kernel plan)", true, 0.0},
          Scenario{"tier 1/16 + re-plan", true, 0.05}}) {
        auto dev = makeDevice(cfg, cache,
                              engine::EngineVariant::Searched);
        if (sc.tiered)
            attachTier(*dev, acceptPlan);
        if (sc.replanThreshold == 0.0 && !sc.tiered)
            load = bench::traceProbe(*dev, tc, 8).samplesPerSecond() * 0.7;
        const Measured m =
            measure(*dev, tc, load, sc.replanThreshold);
        interact.addRow(
            {sc.label,
             bench::fmt(dev->plannedHitRatio() * 100.0, 1),
             bench::fmt(m.serving.steadyHitRatio * 100.0, 1),
             std::to_string(m.serving.replans),
             bench::fmt(m.qps, 0),
             bench::fmt(m.serving.p99.raw() / 1e3, 1)});
    }
    interact.print();

    std::printf("\nExpected shape: QPS and p99 step up once a budget "
                "covers the hammered tables' whole hot set (1/16 "
                "here), then flatten — the residual traffic is "
                "cold-tail; with the tier on, the device cache's "
                "achieved hit ratio falls away from its planned "
                "figure and the re-plan re-searches the kernels "
                "against the residual stream.\n");
}

void
BM_TierIntercept(benchmark::State &state)
{
    const model::ModelConfig cfg = scaledModel(false);
    const workload::TraceConfig tc = hotHeadTrace(cfg);
    auto dev = makeDevice(cfg, {});
    const auto tier =
        attachTier(*dev, planTier(cfg, profileTrace(cfg, tc), 1.0 / 16));
    workload::TraceGenerator gen(cfg, tc);
    const auto batch = gen.nextBatch(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tier->intercept(batch, /*functional=*/false)
                .servedSlices);
    }
}
BENCHMARK(BM_TierIntercept);

void
BM_TieredServing(benchmark::State &state)
{
    const model::ModelConfig cfg = scaledModel(false);
    const workload::TraceConfig tc = hotHeadTrace(cfg);
    auto dev = makeDevice(cfg, {});
    attachTier(*dev, planTier(cfg, profileTrace(cfg, tc), 1.0 / 16));
    workload::TraceGenerator gen(cfg, tc);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dev->infer(gen.nextBatch(4)).completionCycle);
    }
}
BENCHMARK(BM_TieredServing);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
