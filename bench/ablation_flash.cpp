/**
 * @file
 * Ablation — flash-array parallelism and vector size: sweeps the
 * channel/die counts behind the two-stage vector-grained read
 * strategy (device bEV and simulated RM-SSD throughput), and the
 * embedding dimension's effect on CEV and throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "engine/embedding_engine.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"

namespace {

using namespace rmssd;

void
runGeometrySweep()
{
    bench::banner("Ablation - flash parallelism",
                  "RMC1 (1 GB tables), simulated steady-state QPS vs "
                  "channels x dies");

    bench::TextTable table({"channels", "dies/ch", "bEV (cyc/read)",
                            "RM-SSD QPS", "capacity (GB)"});
    for (const std::uint32_t channels : {1u, 2u, 4u, 8u}) {
        for (const std::uint32_t dies : {1u, 2u, 4u}) {
            flash::Geometry geom = flash::tableIIGeometry();
            geom.numChannels = channels;
            geom.diesPerChannel = dies;

            model::ModelConfig cfg = model::rmc1();
            cfg.withTotalEmbeddingGB(
                std::min(1.0, geom.capacityBytes() / 2e9));

            engine::RmSsdOptions opt;
            opt.geometry = geom;
            engine::RmSsd dev(cfg, opt);
            dev.loadTables();

            const double rcpv =
                engine::EmbeddingEngine::steadyStateCyclesPerRead(
                    geom, flash::tableIITiming(),
                    Bytes{cfg.vectorBytes()});
            table.addRow({std::to_string(channels),
                          std::to_string(dies), bench::fmt(rcpv, 1),
                          bench::fmt(workload::steadyStateQps(dev, 4, 8), 0),
                          bench::fmt(geom.capacityBytes() / 1e9, 0)});
        }
    }
    table.print();
    std::printf("\nReading: throughput scales with channels (bus "
                "parallelism) and with dies until the\nchannel bus "
                "saturates — the parallelism argument of Section II-B."
                "\n");
}

void
runEvSizeSweep()
{
    bench::banner("Ablation - embedding vector size",
                  "CEV and RM-SSD throughput vs embedding dimension "
                  "(RMC1-like, 1 GB tables)");

    const flash::NandTiming timing = flash::tableIITiming();
    bench::TextTable table({"dim", "EVsize (B)", "CEV (cyc)",
                            "bEV (cyc/read)", "RM-SSD QPS"});
    for (const std::uint32_t dim : {16u, 32u, 64u, 128u, 256u}) {
        model::ModelConfig cfg = model::rmc1();
        cfg.embDim = dim;
        cfg.withTotalEmbeddingGB(1.0);

        engine::RmSsd dev(cfg, {});
        dev.loadTables();
        const double rcpv =
            engine::EmbeddingEngine::steadyStateCyclesPerRead(
                flash::tableIIGeometry(), timing,
                Bytes{cfg.vectorBytes()});
        table.addRow(
            {std::to_string(dim), std::to_string(cfg.vectorBytes()),
             std::to_string(
                 timing.vectorReadTotalCycles(Bytes{cfg.vectorBytes()})
                     .raw()),
             bench::fmt(rcpv, 1),
             bench::fmt(workload::steadyStateQps(dev, 4, 8), 0)});
    }
    table.print();
    std::printf("\nReading: CEV is flush-dominated, so small vectors "
                "read at nearly constant cost —\nexactly why "
                "page-granular access wastes 0.3*Cpage*(1 - EV/page) "
                "cycles per lookup.\n");
}

void
BM_SteadyStateCyclesPerRead(benchmark::State &state)
{
    const flash::Geometry geom = flash::tableIIGeometry();
    const flash::NandTiming timing = flash::tableIITiming();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine::EmbeddingEngine::steadyStateCyclesPerRead(
                geom, timing, Bytes{128}));
    }
}
BENCHMARK(BM_SteadyStateCyclesPerRead);

} // namespace

int
main(int argc, char **argv)
{
    runGeometrySweep();
    runEvSizeSweep();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
