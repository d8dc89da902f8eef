/**
 * @file
 * Tests for the workload module: locality profiles, trace generator
 * determinism and statistics, and run-result arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/model_zoo.h"
#include "workload/driver.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {
namespace {

model::ModelConfig
smallConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(200000);
    return cfg;
}

/** Hot-set membership of a generator's rows, built from hotRow(). */
class HotSet
{
  public:
    explicit HotSet(const TraceGenerator &gen)
    {
        const std::uint32_t tables = gen.modelConfig().numTables;
        const std::uint64_t ranks = gen.traceConfig().hotRowsPerTable;
        sorted_.resize(tables);
        for (std::uint32_t t = 0; t < tables; ++t) {
            for (std::uint64_t r = 0; r < ranks; ++r)
                sorted_[t].push_back(gen.hotRow(t, r));
            std::sort(sorted_[t].begin(), sorted_[t].end());
        }
    }

    bool
    contains(std::uint32_t table, std::uint64_t row) const
    {
        return std::binary_search(sorted_[table].begin(),
                                  sorted_[table].end(), row);
    }

  private:
    std::vector<std::vector<std::uint64_t>> sorted_;
};

TEST(TraceConfig, LocalityKnobMatchesFig14)
{
    EXPECT_DOUBLE_EQ(localityK(0.0).hotAccessFraction, 0.80);
    EXPECT_DOUBLE_EQ(localityK(0.3).hotAccessFraction, 0.65);
    EXPECT_DOUBLE_EQ(localityK(1.0).hotAccessFraction, 0.45);
    EXPECT_DOUBLE_EQ(localityK(2.0).hotAccessFraction, 0.30);
    EXPECT_EXIT(localityK(5.0), ::testing::ExitedWithCode(1),
                "unsupported locality");
}

TEST(TraceGenerator, DeterministicStreams)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator a(cfg, localityK(0.3));
    TraceGenerator b(cfg, localityK(0.3));
    for (int i = 0; i < 5; ++i) {
        const model::Sample sa = a.next();
        const model::Sample sb = b.next();
        EXPECT_EQ(sa.indices, sb.indices);
        EXPECT_EQ(sa.dense, sb.dense);
    }
}

TEST(TraceGenerator, StreamMatchesPinnedFingerprint)
{
    // Pins the index stream itself, not just its repeatability: a hash
    // of the first 64 samples' indices (and of every drawn row's hot-set
    // membership) at a fixed seed, as the generator has always produced
    // them. Any change to how rows are drawn or ranked shows up here.
    const model::ModelConfig cfg = smallConfig();
    TraceConfig trace = localityK(0.3);
    trace.seed = 7;
    TraceGenerator gen(cfg, trace);
    const HotSet hotSet(gen);
    std::uint64_t fingerprint = 0;
    std::uint64_t hotDraws = 0;
    for (int i = 0; i < 64; ++i) {
        const model::Sample s = gen.next();
        for (std::uint32_t t = 0; t < s.indices.size(); ++t) {
            for (const std::uint64_t idx : s.indices[t]) {
                fingerprint = hashCombine(fingerprint, idx);
                hotDraws += hotSet.contains(t, idx) ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(fingerprint, 0xc1145659656a757eULL);
    EXPECT_EQ(hotDraws, 27262u);
}

TEST(TraceGenerator, ResetRestartsTheStream)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    const model::Sample first = gen.next();
    gen.next();
    gen.reset();
    EXPECT_EQ(gen.next().indices, first.indices);
}

TEST(TraceGenerator, IndicesAreInRange)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.0));
    for (int i = 0; i < 10; ++i) {
        const model::Sample s = gen.next();
        ASSERT_EQ(s.indices.size(), cfg.numTables);
        for (const auto &table : s.indices) {
            ASSERT_EQ(table.size(), cfg.lookupsPerTable);
            for (const std::uint64_t idx : table)
                EXPECT_LT(idx, cfg.rowsPerTable);
        }
    }
}

class HotFractionTest : public ::testing::TestWithParam<double>
{
};

TEST_P(HotFractionTest, EmpiricalHotShareMatchesConfig)
{
    const model::ModelConfig cfg = smallConfig();
    const TraceConfig tc = localityK(GetParam());
    TraceGenerator gen(cfg, tc);
    const HotSet hotSet(gen);

    std::uint64_t hot = 0;
    std::uint64_t total = 0;
    for (int i = 0; i < 20; ++i) {
        const model::Sample s = gen.next();
        for (std::uint32_t t = 0; t < cfg.numTables; ++t) {
            for (const std::uint64_t idx : s.indices[t]) {
                ++total;
                if (hotSet.contains(t, idx))
                    ++hot;
            }
        }
    }
    const double share =
        static_cast<double>(hot) / static_cast<double>(total);
    // Uniform draws can also land in the hot set, so the empirical
    // share is slightly above the configured fraction.
    EXPECT_NEAR(share, tc.hotAccessFraction, 0.05);
}

INSTANTIATE_TEST_SUITE_P(SweepK, HotFractionTest,
                         ::testing::Values(0.0, 0.3, 1.0, 2.0));

TEST(TraceGenerator, HistogramIsSkewed)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    const auto h = gen.histogram(200000, 10);
    EXPECT_EQ(h.totalLookups, 200000u);
    EXPECT_GT(h.uniqueIndices, 1000u);
    ASSERT_EQ(h.top.size(), 10u);
    // Top indices absorb far more than uniform share.
    EXPECT_GT(h.topShare, 0.01);
    // Counts are sorted descending.
    for (std::size_t i = 1; i < h.top.size(); ++i)
        EXPECT_LE(h.top[i].first, h.top[i - 1].first);
    // A large one-hit-wonder tail, like Fig. 4.
    EXPECT_GT(h.onceAccessed, h.uniqueIndices / 2);
}

TEST(RunResult, QpsAndAmplificationMath)
{
    RunResult r;
    r.samples = 1000;
    r.batches = 10;
    r.totalNanos = Nanos{2'000'000'000}; // 2 s
    r.hostTrafficBytes = Bytes{4096};
    r.idealTrafficBytes = Bytes{128};
    EXPECT_DOUBLE_EQ(r.qps(), 500.0);
    EXPECT_EQ(r.latencyPerBatch(), Nanos{200'000'000});
    EXPECT_DOUBLE_EQ(r.readAmplification(), 32.0);
}

TEST(Breakdown, TotalsAndAccumulation)
{
    Breakdown a;
    a.topMlp = Nanos{1};
    a.botMlp = Nanos{2};
    a.concat = Nanos{3};
    a.embOp = Nanos{4};
    a.embFs = Nanos{5};
    a.embSsd = Nanos{6};
    a.other = Nanos{7};
    EXPECT_EQ(a.total(), Nanos{28});
    Breakdown b;
    b += a;
    b += a;
    EXPECT_EQ(b.total(), Nanos{56});
}

} // namespace
} // namespace rmssd::workload
