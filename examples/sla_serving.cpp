/**
 * @file
 * SLA-oriented serving study: Poisson query arrivals against RM-SSD
 * at increasing offered load, reporting tail latency (p50/p95/p99) —
 * the "strict service level agreement" setting the paper's
 * introduction motivates.
 *
 * The device runs with the TinyLFU EV cache enabled and the
 * hit-ratio feedback loop live: each row also shows the steady-state
 * cache hit ratio and how often the drift check re-ran the kernel
 * search (0 once the measured ratio matches the plan).
 *
 * Usage: ./build/examples/sla_serving [model] [batch]
 *        model = RMC1 | RMC2 | RMC3 | NCF | WnD   (default RMC1)
 *        batch = samples per request, 1..4096      (default 4)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/driver.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

int
main(int argc, char **argv)
{
    using namespace rmssd;

    const std::string modelName = argc > 1 ? argv[1] : "RMC1";
    // Parsed signed: a negative batch must not wrap to a huge one.
    constexpr std::uint32_t kMaxBatch = 4096;
    const long long batchArg = argc > 2 ? std::atoll(argv[2]) : 4;
    if (batchArg < 1 || batchArg > kMaxBatch) {
        std::printf("batch must be >= 1 and <= %u\n", kMaxBatch);
        return 1;
    }
    const auto batch = static_cast<std::uint32_t>(batchArg);

    const model::ModelConfig config = model::modelByName(modelName);
    engine::RmSsdOptions options;
    options.evCache.enabled = true;
    options.evCache.admission = engine::EvCacheAdmission::TinyLfu;
    options.coalesceIndices = true;
    engine::RmSsd device(config, options);
    device.loadTables();
    workload::TraceGenerator gen(config, workload::localityK(0.3));

    // Saturation throughput tells us where to sweep.
    const double peak = workload::steadyStateQps(device, batch, 16);
    std::printf("%s, batch %u: saturation throughput ~ %.0f QPS "
                "(%.0f requests/s)\n\n",
                modelName.c_str(), batch, peak, peak / batch);

    std::printf("%-10s %12s %10s %10s %10s %10s %8s %8s\n", "load",
                "requests/s", "p50 (us)", "p95 (us)", "p99 (us)",
                "mean (us)", "hit%", "replans");
    for (const double util : {0.3, 0.5, 0.7, 0.8, 0.9, 0.95}) {
        workload::ServingConfig sc;
        sc.arrivalQps = util * peak / batch;
        sc.batchSize = batch;
        sc.numRequests = 400;
        sc.replanThreshold = 0.05;
        const workload::ServingResult r =
            workload::simulateServing(device, gen, sc);
        std::printf(
            "%-10s %12.0f %10.1f %10.1f %10.1f %10.1f %7.1f%% %8llu\n",
            (std::to_string(static_cast<int>(util * 100)) + "%")
                .c_str(),
            r.offeredQps,
            static_cast<double>(r.p50.raw()) / 1e3,
            static_cast<double>(r.p95.raw()) / 1e3,
            static_cast<double>(r.p99.raw()) / 1e3,
            static_cast<double>(r.meanLatency.raw()) / 1e3,
            r.steadyHitRatio * 100.0,
            static_cast<unsigned long long>(r.replans));
    }
    std::printf(
        "\nReading: RM-SSD sustains the offered load with flat p50 "
        "until utilization approaches\nsaturation, where queueing "
        "inflates the tail - the usual M/D/1-like knee. The hit%% "
        "column\nis the steady-state EV-cache hit ratio; replans "
        "counts kernel-search re-runs triggered\nby hit-ratio drift "
        "(the first rows pay them while the cache warms, then the "
        "plan settles).\n");
    return 0;
}
