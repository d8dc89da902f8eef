/**
 * @file
 * Scale-out serving walkthrough: shard a model's embedding tables
 * across a fleet of RM-SSDs, print the placement the planner chose,
 * and sweep offered load against the fleet to show the tail latency
 * head-room extra devices buy.
 *
 * The fleet sits behind the same InferenceDevice facade as a single
 * device, so the serving loop below is byte-for-byte the one
 * sla_serving.cpp runs against one SSD.
 *
 * Usage: ./build/examples/scaleout_serving [model] [devices]
 *        model   = RMC1 | RMC2 | RMC3 | NCF | WnD  (default RMC1)
 *        devices = fleet size                       (default 4)
 */

#include <cstdio>
#include <string>

#include "cluster/cluster.h"
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
    const std::uint32_t numDevices =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;
    const std::uint32_t batch = 4;

    const model::ModelConfig config = model::modelByName(modelName);
    if (numDevices == 0 || numDevices > config.numTables) {
        std::printf("devices must be in [1, %u] for %s\n",
                    config.numTables, modelName.c_str());
        return 1;
    }

    // Profile the trace so the planner places tables by measured
    // traffic, not just capacity.
    workload::TraceGenerator profile(config, workload::localityK(0.3));
    cluster::ClusterOptions options;
    options.sharding.numDevices = numDevices;
    options.policy = cluster::RouterPolicy::LeastOutstanding;
    options.histograms = profile.tableHistograms(20000);
    cluster::RmSsdCluster fleet(config, options);

    std::printf("%s across %u device(s) - table placement:\n",
                modelName.c_str(), numDevices);
    const cluster::ShardPlan &plan = fleet.shardPlan();
    for (std::uint32_t d = 0; d < plan.numDevices(); ++d) {
        std::printf("  dev%u hosts %zu table(s):", d,
                    plan.tablesPerDevice[d].size());
        for (const std::uint32_t g : plan.tablesPerDevice[d])
            std::printf(" T%u%s", g, plan.replicated(g) ? "*" : "");
        std::printf("\n");
    }
    std::printf("  (* = replicated on multiple devices)\n\n");

    const double peak = workload::steadyStateQps(fleet, 8, 16);
    std::printf("fleet saturation throughput ~ %.0f QPS "
                "(%.0f requests/s at batch %u)\n\n",
                peak, peak / batch, batch);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    std::printf("%-10s %12s %10s %10s %10s\n", "load", "requests/s",
                "p50 (us)", "p99 (us)", "mean (us)");
    for (const double util : {0.3, 0.5, 0.7, 0.9}) {
        workload::ServingConfig sc;
        sc.arrivalQps = util * peak / batch;
        sc.batchSize = batch;
        sc.numRequests = 300;
        const workload::ServingResult r =
            workload::simulateServing(fleet, gen, sc);
        std::printf(
            "%-10s %12.0f %10.1f %10.1f %10.1f\n",
            (std::to_string(static_cast<int>(util * 100)) + "%")
                .c_str(),
            r.offeredQps, static_cast<double>(r.p50.raw()) / 1e3,
            static_cast<double>(r.p99.raw()) / 1e3,
            static_cast<double>(r.meanLatency.raw()) / 1e3);
    }
    std::printf(
        "\nReading: the planner spreads tables by traffic, the router "
        "scatters each request's\nlookups to the owning shards and "
        "gathers the pooled partial sums on a home device\nfor the "
        "MLP. Re-run with devices=1 to see the single-SSD tail at the "
        "same loads.\n");
    return 0;
}
