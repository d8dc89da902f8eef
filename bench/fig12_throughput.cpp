/**
 * @file
 * Fig. 12 — Throughput (QPS) of all implementations across batch
 * sizes 1..32 for RMC1-3: SSD-S, RecSSD, EMB-VectorSum,
 * RM-SSD-Naive, RM-SSD, DRAM — plus the RM-SSD+lfu extension (device
 * EV cache with TinyLFU admission) to show what frequency-aware
 * caching adds over the paper-faithful device on a Zipfian trace.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

// RM-SSD+lfu (device EV cache with TinyLFU admission) rides along at
// the end so the paper-faithful rows above keep their exact values.
const std::vector<std::string> kSystems{
    "SSD-S",        "RecSSD", "EMB-VectorSum",
    "RM-SSD-Naive", "RM-SSD", "DRAM",
    "RM-SSD+lfu"};

void
runFigure()
{
    bench::banner("Fig. 12 - Throughput vs batch size",
                  "QPS (samples/s of simulated time), trace K=0.3");

    const std::vector<std::uint32_t> batches{1, 2, 4, 8, 16, 32};

    for (const char *modelName : {"RMC1", "RMC2", "RMC3"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);
        std::printf("--- %s ---\n", modelName);
        std::vector<std::string> header{"system"};
        for (const std::uint32_t b : batches)
            header.push_back("b=" + std::to_string(b));
        bench::TextTable table(std::move(header));
        table.setCaption(modelName);

        for (const std::string &system : kSystems) {
            // One system instance per row: caches stay warm across
            // the batch sweep, like the paper's steady state.
            auto sys = catalog::makeSystem(system, cfg);
            workload::TraceGenerator gen(cfg, bench::defaultTrace());
            std::vector<std::string> row{system};
            bool warmed = false;
            for (const std::uint32_t b : batches) {
                const std::uint32_t warmup = warmed ? 0 : 4;
                warmed = true;
                const auto r = sys->run(gen, b, 6, warmup);
                row.push_back(bench::fmt(r.qps(), 0));
            }
            table.addRow(std::move(row));
        }
        table.print();
        std::printf("\n");
    }
    std::printf(
        "Expected shape: RMC1/RMC2 flat in batch (embedding-bound);\n"
        "RMC3 grows ~linearly then plateaus (MLP->embedding "
        "crossover); RM-SSD tops every SSD system.\n");
}

void
BM_RmSsdSteadyState(benchmark::State &state)
{
    model::ModelConfig cfg = model::rmc1();
    engine::RmSsd dev(cfg, {});
    dev.loadTables();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            workload::steadyStateQps(
                dev, static_cast<std::uint32_t>(state.range(0)), 4));
    }
}
BENCHMARK(BM_RmSsdSteadyState)->Arg(1)->Arg(8);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
