/**
 * @file
 * Fig. 16 (extension beyond the paper) — Scale-out serving: QPS
 * scaling and tail latency of a multi-SSD RM-SSD fleet. Tables shard
 * across 1/2/4/8 devices (trace-profiled placement, hottest table
 * replicated), each request's lookups scatter to the owning shards and
 * the pooled partial sums gather onto a router-chosen home device for
 * the MLP.
 *
 * Two readouts per model:
 *  - steady-state QPS per fleet size, with speedup and per-device
 *    scaling efficiency against the single device;
 *  - p99 latency under a FIXED offered load (~60 % of one device's
 *    saturation): adding devices drains the queue, so the tail
 *    collapses toward the idle service time.
 *
 * A second table compares the request-router policies (round-robin,
 * least-outstanding, table-affinity) at four devices.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "model/model_zoo.h"
#include "workload/serving.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

cluster::ClusterOptions
fleetOptions(std::uint32_t numDevices, workload::TraceGenerator &gen,
             cluster::RouterPolicy policy =
                 cluster::RouterPolicy::LeastOutstanding,
             std::uint32_t replicateHottest = 0)
{
    cluster::ClusterOptions options;
    options.sharding.numDevices = numDevices;
    // Replication pays off when one table's traffic dwarfs the rest;
    // the RMC models spread lookups evenly across tables, so the
    // scaling sweep runs pure partitioning (a replica would make its
    // chosen shard serve one extra table and stall the gather on it).
    options.sharding.replicateHottest =
        numDevices > 1 ? replicateHottest : 0;
    options.policy = policy;
    options.histograms = gen.tableHistograms(20000);
    return options;
}

void
runFigure()
{
    bench::banner("Fig. 16 - Scale-out serving",
                  "QPS scaling and p99 vs fleet size (batch 8)");

    const std::vector<std::uint32_t> fleets{1, 2, 4, 8};
    const std::uint32_t servingBatch = 4;

    for (const char *modelName : {"RMC1", "RMC2", "RMC3"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);
        std::printf("--- %s ---\n", modelName);
        bench::TextTable table({"devices", "QPS", "speedup",
                                "efficiency", "p99 (us)"});
        table.setCaption(modelName);

        workload::TraceGenerator profile(cfg, bench::defaultTrace());
        double qps1 = 0.0;
        double offeredQps = 0.0;
        for (const std::uint32_t numDevices : fleets) {
            cluster::RmSsdCluster fleet(
                cfg, fleetOptions(numDevices, profile));
            const double qps = workload::steadyStateQps(fleet, 8, 16);
            if (numDevices == 1) {
                qps1 = qps;
                // Fixed offered load for every fleet size: ~60 % of
                // the single device's saturation, in requests/s.
                offeredQps = 0.6 * qps1 / servingBatch;
            }

            workload::TraceGenerator gen(cfg, bench::defaultTrace());
            workload::ServingConfig sc;
            sc.arrivalQps = offeredQps;
            sc.batchSize = servingBatch;
            sc.numRequests = 160;
            const workload::ServingResult serving =
                simulateServing(fleet, gen, sc);

            table.addRow(
                {std::to_string(numDevices), bench::fmt(qps, 0),
                 bench::fmt(qps / qps1, 2) + "x",
                 bench::fmt(qps / (numDevices * qps1) * 100.0, 0) + "%",
                 bench::fmt(
                     static_cast<double>(serving.p99.raw()) / 1e3,
                     1)});
        }
        table.print();
        std::printf("\n");
    }

    // Router policy comparison at a fixed fleet size: the policies
    // shift where queueing happens (replica choice + MLP home), which
    // shows up in the tail, not the mean.
    std::printf("--- Router policies (RMC1, 4 devices) ---\n");
    const model::ModelConfig cfg = model::rmc1();
    bench::TextTable policies(
        {"policy", "QPS", "p50 (us)", "p99 (us)"});
    policies.setCaption("router policies");
    const std::pair<const char *, cluster::RouterPolicy> kPolicies[] = {
        {"round-robin", cluster::RouterPolicy::RoundRobin},
        {"least-outstanding", cluster::RouterPolicy::LeastOutstanding},
        {"table-affinity", cluster::RouterPolicy::TableAffinity},
    };
    for (const auto &[name, policy] : kPolicies) {
        workload::TraceGenerator profile(cfg, bench::defaultTrace());
        // One replicated hot table here, so the policies also differ
        // in how they spread the replica's traffic.
        cluster::RmSsdCluster fleet(
            cfg, fleetOptions(4, profile, policy,
                              /*replicateHottest=*/1));
        const double qps = workload::steadyStateQps(fleet, 8, 16);

        workload::TraceGenerator gen(cfg, bench::defaultTrace());
        workload::ServingConfig sc;
        sc.arrivalQps = 0.5 * qps / servingBatch;
        sc.batchSize = servingBatch;
        sc.numRequests = 160;
        const workload::ServingResult serving =
            simulateServing(fleet, gen, sc);
        policies.addRow(
            {name, bench::fmt(qps, 0),
             bench::fmt(static_cast<double>(serving.p50.raw()) / 1e3,
                        1),
             bench::fmt(static_cast<double>(serving.p99.raw()) / 1e3,
                        1)});
    }
    policies.print();
    std::printf("\nExpected shape: near-linear QPS scaling while the "
                "embedding lookups dominate (>1.7x at 2 devices, >3x "
                "at 4), and the fixed-load p99 collapsing toward the "
                "idle service time as devices absorb the queue.\n");
}

void
BM_ClusterScatterGather(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    workload::TraceGenerator profile(cfg, bench::defaultTrace());
    cluster::RmSsdCluster fleet(cfg, fleetOptions(4, profile));
    workload::TraceGenerator gen(cfg, bench::defaultTrace());
    const auto batch = gen.nextBatch(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.infer(batch).completionCycle);
    }
}
BENCHMARK(BM_ClusterScatterGather);

void
BM_ShardingPlanner(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc2(); // 32 tables
    workload::TraceGenerator profile(cfg, bench::defaultTrace());
    const auto hist = profile.tableHistograms(20000);
    cluster::ShardingOptions options;
    options.numDevices = 8;
    options.replicateHottest = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster::planTableSharding(cfg, options, hist)
                .tablesPerDevice.size());
    }
}
BENCHMARK(BM_ShardingPlanner);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
