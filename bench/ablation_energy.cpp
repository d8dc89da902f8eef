/**
 * @file
 * Ablation — energy per inference: quantifies the ISC efficiency
 * motivation of Section III-B3 by comparing the energy bill of a
 * fully in-device RM-SSD inference against the naive-SSD and
 * DRAM-only host executions.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "engine/energy_model.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

void
runAblation()
{
    bench::banner("Ablation - energy per inference",
                  "millijoules per sample, batch 4, trace K=0.3");

    const engine::EnergyModel energy;
    bench::TextTable table({"model", "system", "flash", "compute",
                            "transfer", "static", "host CPU",
                            "total (mJ)"});

    for (const char *modelName : {"RMC1", "RMC2", "RMC3"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);

        // --- RM-SSD: everything in-device --------------------------
        {
            engine::RmSsd dev(cfg, {});
            dev.loadTables();
            const double qps = workload::steadyStateQps(dev, 4, 16);
            const std::uint64_t samples = dev.inferences().value();
            const Nanos elapsed{static_cast<std::uint64_t>(
                1e9 * static_cast<double>(samples) / qps)};
            const engine::EnergyReport r =
                energy.rmSsdWindow(dev, elapsed, samples);
            const double scale = 1e3 / static_cast<double>(samples);
            table.addRow({modelName, "RM-SSD",
                          bench::fmt(r.flashJ * scale, 3),
                          bench::fmt(r.computeJ * scale, 3),
                          bench::fmt(r.transferJ * scale, 3),
                          bench::fmt(r.staticJ * scale, 3),
                          bench::fmt(r.hostJ * scale, 3),
                          bench::fmt(r.total() * scale, 3)});
        }

        // --- host systems ------------------------------------------
        for (const char *system : {"SSD-S", "DRAM"}) {
            auto sys = catalog::makeSystem(system, cfg);
            workload::TraceGenerator gen(cfg, bench::defaultTrace());
            const workload::RunResult run = sys->run(gen, 4, 6, 4);
            const std::uint64_t pageReads =
                run.hostTrafficBytes /
                Bytes{4096}; // misses fill 4 KB pages
            const engine::EnergyReport r = energy.hostWindow(
                cfg, run.totalNanos, run.totalNanos, run.samples,
                run.hostTrafficBytes, pageReads);
            const double scale =
                1e3 / static_cast<double>(run.samples);
            table.addRow({modelName, system,
                          bench::fmt(r.flashJ * scale, 3),
                          bench::fmt(r.computeJ * scale, 3),
                          bench::fmt(r.transferJ * scale, 3),
                          bench::fmt(r.staticJ * scale, 3),
                          bench::fmt(r.hostJ * scale, 3),
                          bench::fmt(r.total() * scale, 3)});
        }
    }
    table.print();
    std::printf(
        "\nReading: the naive SSD path burns host-CPU energy waiting "
        "on 4 KB fills; RM-SSD's bill is\nflash flushes plus a "
        "low-power FPGA - the Section III-B3 argument, quantified.\n");
}

void
BM_EnergyAccounting(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    engine::RmSsd dev(cfg, {});
    dev.loadTables();
    workload::steadyStateQps(dev, 4, 4);
    const engine::EnergyModel energy;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            energy.rmSsdWindow(dev, Nanos{1'000'000}, 100).total());
    }
}
BENCHMARK(BM_EnergyAccounting);

} // namespace

int
main(int argc, char **argv)
{
    runAblation();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
