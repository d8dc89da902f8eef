/**
 * @file
 * Table II — Performance and settings of the emulated SSD: echoes
 * the configuration and validates the derived quantities (capacity,
 * random-4K IOPS, Cpage, CEV formula) against the paper.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "flash/flash_array.h"
#include "ftl/ftl.h"
#include "nvme/nvme.h"

namespace {

using namespace rmssd;

void
runTable()
{
    bench::banner("Table II - Emulated SSD settings",
                  "Configured values and measured validation");

    const flash::Geometry g = flash::tableIIGeometry();
    const flash::NandTiming t = flash::tableIITiming();
    flash::FlashArray array(g, t);
    ftl::Ftl ftl = ftl::Ftl::makeLinear(array);
    nvme::NvmeController nvme(ftl);

    bench::TextTable table({"setting", "paper", "this build"});
    table.addRow({"Capacity", "32 GB",
                  bench::fmt(g.capacityBytes() / 1e9, 1) + " GB"});
    table.addRow({"#Channels", "4", std::to_string(g.numChannels)});
    table.addRow({"Random 4K read", "45K IOPS",
                  bench::fmt(nvme.randomReadIops() / 1000.0, 1) +
                      "K IOPS"});
    table.addRow({"Latency Tpage", "20 us",
                  bench::fmt(static_cast<double>(
                                 cyclesToNanos(t.pageReadTotalCycles())
                                     .raw()) /
                                 1000.0,
                             1) +
                      " us"});
    table.addRow({"Page read delay Cpage", "4000 cycles",
                  std::to_string(t.pageReadTotalCycles().raw()) + " cycles"});
    table.addRow(
        {"EV read delay CEV(128B)", "0.293*128+2800 = 2838",
         std::to_string(t.vectorReadTotalCycles(Bytes{128}).raw()) +
             " cycles"});
    table.addRow(
        {"EV read delay CEV(256B)", "0.293*256+2800 = 2875",
         std::to_string(t.vectorReadTotalCycles(Bytes{256}).raw()) +
             " cycles"});
    table.print();
}

void
BM_VectorReadTiming(benchmark::State &state)
{
    flash::FlashArray array(flash::tableIIGeometry(),
                            flash::tableIITiming());
    std::uint64_t ppn = 0;
    Cycle now{};
    for (auto _ : state) {
        now = array
                  .readVector(now, PageId{ppn++ % 100000}, Bytes{},
                              array.vectorTransfer(Bytes{128}), {})
                  .done;
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_VectorReadTiming);

} // namespace

int
main(int argc, char **argv)
{
    runTable();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
