/**
 * @file
 * Tests for the query batcher: window semantics (size cap vs flush
 * timeout), latency accounting, and the batching throughput/latency
 * trade on an MLP-dominated model.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/batcher.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {
namespace {

class BatcherFixture : public ::testing::Test
{
  protected:
    BatcherFixture()
    {
        config_ = model::rmc3();
        config_.withRowsPerTable(100000);
        device_ = std::make_unique<engine::RmSsd>(
            config_, engine::RmSsdOptions{});
        device_->loadTables();
        gen_ = std::make_unique<TraceGenerator>(config_,
                                                localityK(0.3));
    }

    model::ModelConfig config_;
    std::unique_ptr<engine::RmSsd> device_;
    std::unique_ptr<TraceGenerator> gen_;
};

TEST_F(BatcherFixture, HighLoadFillsBatches)
{
    BatcherConfig bc;
    bc.arrivalQps = 50000.0; // queries pile up fast
    bc.maxBatch = 8;
    bc.flushTimeout = Nanos{1'000'000};
    bc.numQueries = 400;
    const BatcherResult r =
        simulateBatchedServing(*device_, *gen_, bc);
    // Nearly every dispatch hits the size cap.
    EXPECT_GT(r.meanBatchSize, 7.0);
    EXPECT_LE(r.meanBatchSize, 8.0);
}

TEST_F(BatcherFixture, LowLoadFlushesOnTimeout)
{
    BatcherConfig bc;
    bc.arrivalQps = 200.0; // sparse arrivals
    bc.maxBatch = 8;
    bc.flushTimeout = Nanos{100'000}; // 100 us << 5 ms inter-arrival
    bc.numQueries = 100;
    const BatcherResult r =
        simulateBatchedServing(*device_, *gen_, bc);
    EXPECT_LT(r.meanBatchSize, 2.0);
    // Every query waits at least... no: the first query of a window
    // waits the full timeout; latency must include it.
    EXPECT_GE(r.meanLatency, bc.flushTimeout);
}

TEST_F(BatcherFixture, BatchingRaisesThroughputOnMlpDominated)
{
    // RMC3's MLP engine amortizes micro-batches; a batching window
    // that fills 8-slots must complete queries faster than batch-1
    // dispatching at the same offered load.
    BatcherConfig solo;
    solo.arrivalQps = 2500.0;
    solo.maxBatch = 1;
    solo.flushTimeout = Nanos{1};
    solo.numQueries = 300;
    const BatcherResult rSolo =
        simulateBatchedServing(*device_, *gen_, solo);

    BatcherConfig batched = solo;
    batched.maxBatch = 8;
    batched.flushTimeout = Nanos{2'000'000};
    const BatcherResult rBatched =
        simulateBatchedServing(*device_, *gen_, batched);

    // Batch-1 dispatching cannot keep up (device saturates ~700 QPS
    // at batch 1); the batcher absorbs the same load.
    EXPECT_GT(rBatched.achievedQps, rSolo.achievedQps * 1.5);
    EXPECT_LT(rBatched.p99, rSolo.p99);
}

TEST_F(BatcherFixture, AllQueriesAccountedFor)
{
    BatcherConfig bc;
    bc.arrivalQps = 3000.0;
    bc.maxBatch = 4;
    bc.numQueries = 101; // deliberately not a multiple of the cap
    const BatcherResult r =
        simulateBatchedServing(*device_, *gen_, bc);
    EXPECT_NEAR(r.meanBatchSize * static_cast<double>(r.dispatches),
                101.0, 0.5);
}

TEST_F(BatcherFixture, PartialBatchNeverWaitsPastFlushTimeout)
{
    // Regression: the flush timer is its own event. A lone query with
    // no subsequent arrival to piggy-back on (here: 10 ms gaps vs a
    // 50 us timeout, so every window is a singleton — including the
    // stream's last) must dispatch at windowOpen + flushTimeout, not
    // wait for the next arrival to be processed.
    BatcherConfig bc;
    bc.arrivalQps = 50.0; // 20 ms inter-arrival
    bc.maxBatch = 8;
    bc.flushTimeout = Nanos{50'000};
    bc.numQueries = 10;
    const BatcherResult r =
        simulateBatchedServing(*device_, *gen_, bc);
    EXPECT_EQ(r.dispatches, 10u);
    // Every query waits exactly the timeout plus its own service time
    // (~3.4 ms for batch-1 RMC3); an unbounded wait would show up as
    // ~20 ms latencies.
    EXPECT_GE(r.meanLatency, bc.flushTimeout);
    EXPECT_LT(r.p99, bc.flushTimeout + Nanos{8'000'000});
}

TEST_F(BatcherFixture, RunsAgainstClusterBackend)
{
    // The batcher takes any InferenceDevice — drive an x2 fleet.
    cluster::ClusterOptions fleetOptions;
    fleetOptions.sharding.numDevices = 2;
    cluster::RmSsdCluster fleet(config_, fleetOptions);

    BatcherConfig bc;
    bc.arrivalQps = 3000.0;
    bc.maxBatch = 4;
    bc.numQueries = 101;
    const BatcherResult r = simulateBatchedServing(fleet, *gen_, bc);
    EXPECT_NEAR(r.meanBatchSize * static_cast<double>(r.dispatches),
                101.0, 0.5);
    EXPECT_GT(r.achievedQps, 0.0);
}

TEST_F(BatcherFixture, PipelinedDispatchIsDeterministicAndComplete)
{
    BatcherConfig bc;
    bc.arrivalQps = 50000.0;
    bc.maxBatch = 8;
    bc.numQueries = 200;
    bc.queueDepth = 4;
    gen_->reset();
    const BatcherResult a = simulateBatchedServing(*device_, *gen_, bc);
    gen_->reset();
    const BatcherResult b = simulateBatchedServing(*device_, *gen_, bc);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_NEAR(a.meanBatchSize * static_cast<double>(a.dispatches),
                200.0, 0.5);
}

TEST_F(BatcherFixture, DeterministicForSeed)
{
    BatcherConfig bc;
    bc.arrivalQps = 3000.0;
    bc.numQueries = 100;
    gen_->reset();
    const BatcherResult a = simulateBatchedServing(*device_, *gen_, bc);
    gen_->reset();
    const BatcherResult b = simulateBatchedServing(*device_, *gen_, bc);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.dispatches, b.dispatches);
}

TEST(Batcher, EmptyStreamReportsZeros)
{
    // No queries means no dispatch and no completion: every rate and
    // mean is zero, not 0/0.
    const model::ModelConfig config =
        model::rmc3().withRowsPerTable(100000);
    engine::RmSsd device(config, engine::RmSsdOptions{});
    device.loadTables();
    TraceGenerator gen(config, localityK(0.3));
    BatcherConfig bc;
    bc.numQueries = 0;
    const BatcherResult r = simulateBatchedServing(device, gen, bc);
    EXPECT_EQ(r.dispatches, 0u);
    EXPECT_EQ(r.achievedQps, 0.0);
    EXPECT_EQ(r.meanBatchSize, 0.0);
    EXPECT_EQ(r.meanLatency, Nanos{});
    EXPECT_EQ(r.p99, Nanos{});
}

} // namespace
} // namespace rmssd::workload
