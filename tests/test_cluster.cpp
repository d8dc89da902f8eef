/**
 * @file
 * Tests for the scale-out serving subsystem: the table-sharding
 * planner's partition/replication invariants, byte-exact scatter-gather
 * against a single device, router policies, fleet stats, and the
 * registry's fleet variants.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "cluster/sharding.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/driver.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::cluster {
namespace {

/** Small functional model: tables load into flash in milliseconds. */
model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

TEST(ShardingPlanner, UniformWeightsAreCapacityExact)
{
    model::ModelConfig config = model::rmc1(); // 8 tables
    ShardingOptions options;
    options.numDevices = 4;
    const ShardPlan plan = planTableSharding(config, options);

    ASSERT_EQ(plan.numDevices(), 4u);
    std::vector<bool> seen(config.numTables, false);
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_EQ(plan.tablesPerDevice[d].size(), 2u);
        for (const std::uint32_t g : plan.tablesPerDevice[d]) {
            EXPECT_FALSE(seen[g]) << "table " << g << " placed twice";
            seen[g] = true;
        }
    }
    for (std::uint32_t g = 0; g < config.numTables; ++g) {
        EXPECT_TRUE(seen[g]) << "table " << g << " unplaced";
        ASSERT_EQ(plan.ownersPerTable[g].size(), 1u);
        EXPECT_FALSE(plan.replicated(g));
        // The placement index round-trips to the device-side listing.
        const std::uint32_t d = plan.ownersPerTable[g][0];
        const std::uint32_t slot = plan.localSlotPerTable[g][0];
        EXPECT_EQ(plan.tablesPerDevice[d][slot], g);
    }
}

TEST(ShardingPlanner, SkewedHistogramIsolatesHeavyTable)
{
    model::ModelConfig config = model::rmc1();
    config.numTables = 4;
    std::vector<workload::TraceGenerator::TableHistogram> hist(4);
    hist[2].uniqueHotIndices = 100; // dominates the placement weight
    hist[0].uniqueHotIndices = 1;
    hist[1].uniqueHotIndices = 1;
    hist[3].uniqueHotIndices = 1;

    ShardingOptions options;
    options.numDevices = 2;
    const ShardPlan plan = planTableSharding(config, options, hist);

    // The heavy table gets a device of its own; the light tables pack
    // onto the other.
    const std::uint32_t heavyDev = plan.ownersPerTable[2][0];
    EXPECT_EQ(plan.tablesPerDevice[heavyDev].size(), 1u);
    EXPECT_EQ(plan.tablesPerDevice[1 - heavyDev].size(), 3u);
}

TEST(ShardingPlanner, ReplicationInvariants)
{
    model::ModelConfig config = model::rmc1(); // 8 tables
    std::vector<workload::TraceGenerator::TableHistogram> hist(8);
    for (std::uint32_t g = 0; g < 8; ++g) {
        hist[g].totalLookups = g == 5 ? 1000 : 10;
        hist[g].uniqueHotIndices = 1 + g;
    }

    ShardingOptions options;
    options.numDevices = 4;
    options.replicateHottest = 1;
    const ShardPlan plan = planTableSharding(config, options, hist);

    // The hottest table (by traffic) lives on every device; every
    // table keeps at least one owner; no device lists a table twice.
    EXPECT_EQ(plan.ownersPerTable[5].size(), 4u);
    EXPECT_TRUE(plan.replicated(5));
    for (std::uint32_t g = 0; g < 8; ++g)
        EXPECT_GE(plan.ownersPerTable[g].size(), 1u);
    for (std::uint32_t d = 0; d < 4; ++d) {
        const auto &tables = plan.tablesPerDevice[d];
        for (std::size_t a = 0; a < tables.size(); ++a) {
            for (std::size_t b = a + 1; b < tables.size(); ++b)
                EXPECT_NE(tables[a], tables[b]);
        }
    }
    // Replica slots index correctly on every owner.
    for (std::size_t i = 0; i < plan.ownersPerTable[5].size(); ++i) {
        const std::uint32_t d = plan.ownersPerTable[5][i];
        const std::uint32_t slot = plan.localSlotPerTable[5][i];
        EXPECT_EQ(plan.tablesPerDevice[d][slot], 5u);
    }
}

/** Single-device EmbeddingOnly reference outputs for a batch. */
std::vector<float>
referencePooled(const model::ModelConfig &config,
                const std::vector<model::Sample> &batch)
{
    engine::RmSsdOptions options;
    options.variant = engine::EngineVariant::EmbeddingOnly;
    options.functional = true;
    engine::RmSsd device(config, options);
    device.loadTables();
    return device.infer(batch).outputs;
}

TEST(ClusterFunctional, PooledMatchesSingleDeviceExactly)
{
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const auto batch = gen.nextBatch(6);
    const std::vector<float> reference = referencePooled(config, batch);

    for (const std::uint32_t numDevices : {2u, 3u}) {
        ClusterOptions options;
        options.sharding.numDevices = numDevices;
        options.embeddingOnly = true;
        options.device.functional = true;
        RmSsdCluster fleet(config, options);
        const std::vector<float> sharded = fleet.infer(batch).outputs;

        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(sharded[i], reference[i]) << "element " << i;
    }
}

TEST(ClusterFunctional, ReplicatedPooledStillMatchesReference)
{
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator gen(config, workload::localityK(0.0));
    const auto hist = gen.tableHistograms(2000);
    const auto batch = gen.nextBatch(5);
    const std::vector<float> reference = referencePooled(config, batch);

    ClusterOptions options;
    options.sharding.numDevices = 3;
    options.sharding.replicateHottest = 2;
    options.policy = RouterPolicy::RoundRobin;
    options.embeddingOnly = true;
    options.device.functional = true;
    options.histograms = hist;
    RmSsdCluster fleet(config, options);

    // Several requests so the round-robin replica rotation actually
    // routes replicated tables to different shards.
    for (int r = 0; r < 3; ++r) {
        const std::vector<float> sharded = fleet.infer(batch).outputs;
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(sharded[i], reference[i]) << "element " << i;
    }
}

TEST(ClusterFunctional, CtrMatchesSingleSearchedDevice)
{
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const auto batch = gen.nextBatch(4);

    engine::RmSsdOptions single;
    single.functional = true;
    engine::RmSsd device(config, single);
    device.loadTables();
    const std::vector<float> reference = device.infer(batch).outputs;

    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.device.functional = true;
    RmSsdCluster fleet(config, options);
    const std::vector<float> sharded = fleet.infer(batch).outputs;

    ASSERT_EQ(sharded.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(sharded[i], reference[i]) << "sample " << i;
}

TEST(ClusterModel, TimingOnlyFleetBuildsNoWeights)
{
    const model::ModelConfig config = tinyConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    const RmSsdCluster timing(config, options);
    EXPECT_FALSE(timing.model().hasWeights());
    for (std::uint32_t d = 0; d < 2; ++d)
        EXPECT_FALSE(timing.shard(d).model().hasWeights());

    // A functional fleet keeps its weights, and its CTRs equal a host
    // model built on its own.
    options.device.functional = true;
    RmSsdCluster functional(config, options);
    EXPECT_TRUE(functional.model().hasWeights());
    const model::DlrmModel host(config);
    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const auto batch = gen.nextBatch(4);
    const std::vector<float> ctrs = functional.infer(batch).outputs;
    ASSERT_EQ(ctrs.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(ctrs[i], host.referenceInference(batch[i]))
            << "sample " << i;
}

TEST(ClusterModelDeathTest, TimingOnlyFleetRefusesAForwardPass)
{
    ClusterOptions options;
    options.sharding.numDevices = 2;
    const RmSsdCluster fleet(tinyConfig(), options);
    const model::Sample s = fleet.model().makeSample(0);
    EXPECT_EXIT((void)fleet.model().referenceInference(s),
                ::testing::ExitedWithCode(1), "shapes-only");
}

class ClusterTimingFixture : public ::testing::Test
{
  protected:
    ClusterTimingFixture()
        : config_(model::rmc1().withRowsPerTable(100000))
    {
        config_.lookupsPerTable = 16;
    }

    std::unique_ptr<RmSsdCluster>
    makeFleet(std::uint32_t numDevices,
              RouterPolicy policy = RouterPolicy::LeastOutstanding)
    {
        ClusterOptions options;
        options.sharding.numDevices = numDevices;
        options.policy = policy;
        return std::make_unique<RmSsdCluster>(config_, options);
    }

    model::ModelConfig config_;
};

TEST_F(ClusterTimingFixture, TwoDevicesScaleThroughput)
{
    auto one = makeFleet(1);
    auto two = makeFleet(2);
    const double qps1 = workload::steadyStateQps(*one, 8, 8);
    const double qps2 = workload::steadyStateQps(*two, 8, 8);
    EXPECT_GT(qps1, 0.0);
    // Loose bound: the tests guard the mechanism, the fig16 bench
    // guards the >1.7x acceptance number.
    EXPECT_GT(qps2, 1.3 * qps1);
}

TEST_F(ClusterTimingFixture, AllPoliciesServeAndAreDeterministic)
{
    for (const RouterPolicy policy :
         {RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
          RouterPolicy::TableAffinity}) {
        auto fleet = makeFleet(2, policy);
        workload::TraceGenerator gen(config_, workload::localityK(0.3));
        workload::ServingConfig sc;
        sc.arrivalQps = 300.0;
        sc.numRequests = 40;
        gen.reset();
        const workload::ServingResult a =
            simulateServing(*fleet, gen, sc);
        gen.reset();
        const workload::ServingResult b =
            simulateServing(*fleet, gen, sc);
        EXPECT_EQ(a.p99, b.p99);
        EXPECT_EQ(a.meanLatency, b.meanLatency);
        EXPECT_EQ(a.requests, 40u);
        EXPECT_GT(a.achievedQps, 0.0);
    }
}

TEST_F(ClusterTimingFixture, StatsAggregateUnderDevicePrefixes)
{
    auto fleet = makeFleet(2);
    StatsRegistry registry;
    fleet->registerStats(registry);

    workload::TraceGenerator gen(config_, workload::localityK(0.3));
    fleet->infer(gen.nextBatch(4));
    fleet->infer(gen.nextBatch(4));

    EXPECT_EQ(registry.counterValue("cluster.requests"), 2u);
    EXPECT_GE(registry.counterValue("cluster.subRequests"), 2u);
    EXPECT_GT(registry.counterValue("cluster.dev0.emb.lookups"), 0u);
    EXPECT_GT(registry.counterValue("cluster.dev1.emb.lookups"), 0u);
    // Both shards together served every lookup of both requests.
    EXPECT_EQ(registry.counterValue("cluster.dev0.emb.lookups") +
                  registry.counterValue("cluster.dev1.emb.lookups"),
              2ull * 4 * config_.lookupsPerSample());

    std::ostringstream os;
    registry.dump(os);
    EXPECT_NE(os.str().find("cluster.dev1.host.bytesRead"),
              std::string::npos);
}

TEST_F(ClusterTimingFixture, RegistryBuildsFleetVariants)
{
    for (const std::string name : {"RM-SSD x2", "RM-SSD x4"}) {
        auto system = catalog::makeSystem(name, config_);
        workload::TraceGenerator gen(config_, workload::localityK(0.3));
        const workload::RunResult result =
            system->run(gen, 4, 4, 1);
        EXPECT_EQ(result.system, name);
        EXPECT_EQ(result.batches, 4u);
        EXPECT_GT(result.totalNanos.raw(), 0u);
    }
}

} // namespace
} // namespace rmssd::cluster
