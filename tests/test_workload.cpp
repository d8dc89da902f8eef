/**
 * @file
 * Tests for the workload module: locality profiles, trace generator
 * determinism and statistics, and run-result arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "model/model_zoo.h"
#include "sim/rng.h"
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
    HotSet(const TraceGenerator &gen, std::uint32_t tables)
    {
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
    const HotSet hotSet(gen, cfg.numTables);
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

/**
 * libm's pow, called for real. Given a constant exponent of 2, the
 * compiler would fold pow(u, 2.0) into u * u, the very rewrite under
 * test; reading the exponent through a volatile stops that.
 */
double
libmPow(double u, double skew)
{
    const volatile double exponent = skew;
    return std::pow(u, exponent);
}

/** The rank expression hotRank() must reproduce bit for bit. */
std::uint64_t
powRank(double u, double skew, std::uint64_t hotRows)
{
    const auto rank = static_cast<std::uint64_t>(
        libmPow(u, skew) * static_cast<double>(hotRows));
    return std::min(rank, hotRows - 1);
}

/** Hot-set sizes: tiny, the benchmarks' and figures', and odd ones. */
const std::uint64_t kRankSizes[] = {1,    7,     200,          512,
                                    1024, 10000, (1u << 20) + 3};

TEST(HotRank, SquareMatchesPowOnAMillionDraws)
{
    for (const std::uint64_t n : kRankSizes) {
        SCOPED_TRACE(n);
        Rng rng(0x5eed0000 + n);
        std::uint64_t mismatches = 0;
        std::uint64_t inexactSquares = 0;
        for (int i = 0; i < 1000000; ++i) {
            const double u = rng.nextDouble();
            mismatches += hotRank(u, 2.0, n) != powRank(u, 2.0, n);
            inexactSquares += libmPow(u, 2.0) != u * u;
        }
        EXPECT_EQ(mismatches, 0u);
        // pow is not correctly rounded, so the draws include squares
        // where the multiply and pow disagree in the last bit.
        EXPECT_GT(inexactSquares, 0u);
    }
}

TEST(HotRank, DrawsAtARankBoundaryTakeThePowPath)
{
    // u = sqrt(k / n) puts u * u * n on the integer k, where the two
    // products could floor differently. Walk 8 doubles either side:
    // each lies inside the guard band, so hotRank must fall back to
    // pow and agree with it exactly.
    for (const std::uint64_t n : kRankSizes) {
        SCOPED_TRACE(n);
        const double nd = static_cast<double>(n);
        const std::uint64_t step = std::max<std::uint64_t>(1, n / 997);
        for (std::uint64_t k = 1; k < n; k += step) {
            double u = std::sqrt(static_cast<double>(k) / nd);
            for (int i = 0; i < 8; ++i)
                u = std::nextafter(u, 0.0);
            for (int i = 0; i < 17; ++i, u = std::nextafter(u, 1.0)) {
                const double x = u * u * nd;
                ASSERT_LE(std::abs(x - static_cast<double>(k)),
                          0x1p-40 * static_cast<double>(k))
                    << "u outside the guard band, k " << k;
                ASSERT_EQ(hotRank(u, 2.0, n), powRank(u, 2.0, n))
                    << "k " << k << " u " << u;
            }
        }
    }
}

TEST(HotRank, OtherSkewsStayExact)
{
    for (const double skew : {1.5, 3.0}) {
        for (const std::uint64_t n : kRankSizes) {
            Rng rng(n);
            for (int i = 0; i < 100000; ++i) {
                const double u = rng.nextDouble();
                ASSERT_EQ(hotRank(u, skew, n), powRank(u, skew, n))
                    << "skew " << skew << " n " << n << " u " << u;
            }
        }
    }
    // The top of [0, 1) clamps to the last row at any skew.
    const double top = std::nextafter(1.0, 0.0);
    for (const double skew : {1.5, 2.0, 3.0})
        EXPECT_EQ(hotRank(top, skew, 200), 199u);
    EXPECT_EQ(hotRank(0.0, 2.0, 200), 0u);
}

/**
 * Fingerprint of the first @p draws indices a generator produces,
 * sample by sample, table by table.
 */
std::uint64_t
drawFingerprint(const model::ModelConfig &cfg, const TraceConfig &trace,
                std::uint64_t draws)
{
    TraceGenerator gen(cfg, trace);
    std::uint64_t fingerprint = 0;
    std::uint64_t n = 0;
    while (n < draws) {
        const model::Sample s = gen.next();
        for (const auto &table : s.indices) {
            for (const std::uint64_t idx : table) {
                if (n++ < draws)
                    fingerprint = hashCombine(fingerprint, idx);
            }
        }
    }
    return fingerprint;
}

/** The four trace shapes the benchmark workloads serve. */
struct TraceShape
{
    const char *name;
    model::ModelConfig model;
    TraceConfig trace;
};

std::vector<TraceShape>
benchmarkTraceShapes()
{
    // Each shape at the serving-trace seed the benchmark derives from
    // run seed 1.
    const std::uint64_t seed = hashCombine(1, 1);

    TraceConfig cached = localityK(0.0);
    cached.hotRowsPerTable = 200;
    cached.seed = seed;

    TraceConfig cold = localityK(2.0);
    cold.seed = seed;

    TraceConfig crowd;
    crowd.hotRowsPerTable = 512;
    crowd.hotSkew = 2.0;
    crowd.hotAccessFraction = 0.8;
    crowd.seed = seed;

    TraceConfig hotHead;
    hotHead.hotRowsPerTable = 1024;
    hotHead.hotAccessFraction = 0.5;
    hotHead.hotSkew = 2.0;
    hotHead.seed = seed;
    hotHead.tableHotFractions.assign(2, 1.0);
    model::ModelConfig small = model::rmc1();
    small.withRowsPerTable(1ull << 14);

    return {{"cached K=0, 200 hot rows", model::rmc1(), cached},
            {"localityK(2.0)", model::rmc2(), cold},
            {"flash crowd, 512 hot rows", model::rmc1(), crowd},
            {"hot head, 1024 hot rows", small, hotHead}};
}

TEST(TraceGenerator, BenchmarkShapesMatchPinnedFingerprints)
{
    // 10^5 draws of each benchmark trace shape, fingerprinted as the
    // generator produced them when every hot rank still called pow.
    const std::uint64_t pinned[] = {
        0x8e96613a70c6ba58ULL,
        0x59fe664bbc007d99ULL,
        0x2423534535bd4cd4ULL,
        0x7e47f3f7b9983768ULL,
    };
    const std::vector<TraceShape> shapes = benchmarkTraceShapes();
    ASSERT_EQ(shapes.size(), std::size(pinned));
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        EXPECT_EQ(drawFingerprint(shapes[i].model, shapes[i].trace, 100000),
                  pinned[i])
            << shapes[i].name;
    }
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

TEST(TraceGenerator, FillIntoDirtyBuffersEqualsNext)
{
    // fill() reuses whatever buffers it is handed: too long, too
    // short, wrong table count, stale values. Each must come out as
    // exactly the sample next() draws at the same stream position.
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator filled(cfg, localityK(0.3));
    TraceGenerator fresh(cfg, localityK(0.3));
    std::vector<model::Sample> dirty(4);
    dirty[0].dense.assign(cfg.denseInputDim() + 7, -1.0f);
    dirty[0].indices.assign(cfg.numTables + 3,
                            std::vector<std::uint64_t>(5, 99));
    dirty[1].dense.assign(1, 42.0f);
    dirty[1].indices.assign(1, std::vector<std::uint64_t>(
                                   cfg.lookupsPerTable * 2, 7));
    dirty[2].indices.resize(cfg.numTables);
    dirty[2].indices.back().assign(1, 3);
    for (int round = 0; round < 2; ++round) {
        for (model::Sample &sample : dirty) {
            filled.fill(sample);
            const model::Sample expected = fresh.next();
            EXPECT_EQ(sample.dense, expected.dense);
            EXPECT_EQ(sample.indices, expected.indices);
        }
    }
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
    const HotSet hotSet(gen, cfg.numTables);

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

/**
 * TraceGenerator::tableHistograms as it was before the rank-to-id
 * table, kept as the reference: the profile stream's draws resolved
 * to rows, then a binary search over the sorted, deduplicated hot set.
 */
std::vector<TraceGenerator::TableHistogram>
referenceTableHistograms(const TraceGenerator &gen,
                         const model::ModelConfig &cfg,
                         std::uint64_t lookupsPerTable)
{
    const TraceConfig &trace = gen.traceConfig();
    Rng rng(hashCombine(trace.seed, 0x7ab1e815ULL));
    std::vector<TraceGenerator::TableHistogram> hist(cfg.numTables);
    for (std::uint32_t t = 0; t < cfg.numTables; ++t) {
        std::vector<std::uint64_t> hotSorted;
        for (std::uint64_t r = 0; r < trace.hotRowsPerTable; ++r)
            hotSorted.push_back(gen.hotRow(t, r));
        std::sort(hotSorted.begin(), hotSorted.end());
        hotSorted.erase(std::unique(hotSorted.begin(), hotSorted.end()),
                        hotSorted.end());
        std::vector<bool> seen(hotSorted.size(), false);
        TraceGenerator::TableHistogram &h = hist[t];
        h.totalLookups = lookupsPerTable;
        for (std::uint64_t i = 0; i < lookupsPerTable; ++i) {
            std::uint64_t idx = 0;
            if (rng.nextDouble() < trace.tableHotFraction(t)) {
                idx = gen.hotRow(t, hotRankPow(rng.nextDouble(),
                                               trace.hotSkew,
                                               trace.hotRowsPerTable));
            } else {
                idx = rng.nextBounded(cfg.rowsPerTable);
            }
            const auto it =
                std::lower_bound(hotSorted.begin(), hotSorted.end(), idx);
            if (it == hotSorted.end() || *it != idx)
                continue;
            ++h.hotLookups;
            const auto pos = static_cast<std::size_t>(it - hotSorted.begin());
            if (!seen[pos]) {
                seen[pos] = true;
                ++h.uniqueHotIndices;
            }
        }
    }
    return hist;
}

/** A trace shape for the profile differentials. */
struct ProfileShape
{
    const char *name;
    std::uint32_t tables;
    std::uint64_t rowsPerTable;
    std::uint64_t hotRows;
    double skew;
    std::vector<double> hotFractions; //!< empty: uniform 0.65
};

std::vector<ProfileShape>
profileShapes()
{
    return {
        // The benchmark-like shape: 10 000 hot rows in 2^20.
        {"rmc1-like", 8, std::uint64_t{1} << 20, 10000, 2.0, {}},
        // Hot fractions 0 and 1 side by side, skew 1.5.
        {"all-or-nothing", 4, 50000, 3000, 1.5, {0.0, 1.0, 0.3, 1.0}},
        // More hot ranks than rows: ranks alias onto one row, and
        // most cold draws land on a hot row.
        {"aliased", 3, 4096, 4000, 2.0, {0.5, 0.1, 0.9}},
        {"over-full", 2, 512, 2000, 1.5, {}},
        // Steeper skews, one hot row, and a one-row table.
        {"steep", 2, 100000, 700, 3.0, {}},
        {"single-hot-row", 2, 1000, 1, 2.0, {0.8, 0.2}},
        {"one-row-table", 2, 1, 5, 2.0, {}},
    };
}

TEST(TableHistogramsDifferential, MatchesSortedSearchReference)
{
    for (const ProfileShape &shape : profileShapes()) {
        model::ModelConfig cfg = model::rmc1();
        cfg.numTables = shape.tables;
        cfg.withRowsPerTable(shape.rowsPerTable);
        TraceConfig trace;
        trace.hotRowsPerTable = shape.hotRows;
        trace.hotSkew = shape.skew;
        trace.tableHotFractions = shape.hotFractions;
        trace.seed = 0xd1ff + shape.hotRows;
        const TraceGenerator gen(cfg, trace);
        for (const std::uint64_t lookups : {0u, 1u, 7u, 20000u}) {
            const auto got = gen.tableHistograms(lookups);
            const auto want = referenceTableHistograms(gen, cfg, lookups);
            ASSERT_EQ(got.size(), want.size()) << shape.name;
            for (std::size_t t = 0; t < got.size(); ++t) {
                SCOPED_TRACE(::testing::Message()
                             << shape.name << " table " << t << ", "
                             << lookups << " lookups");
                EXPECT_EQ(got[t].totalLookups, want[t].totalLookups);
                EXPECT_EQ(got[t].hotLookups, want[t].hotLookups);
                EXPECT_EQ(got[t].uniqueHotIndices,
                          want[t].uniqueHotIndices);
            }
        }
    }
}

TEST(TableHistogramsDifferential, ShapesReachEveryBranch)
{
    // The shapes above are only worth something if cold draws do hit
    // hot rows somewhere and hot fractions 0 and 1 profile as such.
    model::ModelConfig cfg = model::rmc1();
    cfg.numTables = 4;
    cfg.withRowsPerTable(4096);
    TraceConfig trace;
    trace.hotRowsPerTable = 4000;
    trace.tableHotFractions = {0.0, 1.0, 0.5, 0.5};
    const auto hist = TraceGenerator(cfg, trace).tableHistograms(5000);
    // Fraction 0: every lookup is a cold draw, and most hit a hot row.
    EXPECT_GT(hist[0].hotLookups, 2500u);
    EXPECT_LT(hist[0].hotLookups, 5000u);
    // Fraction 1: every lookup is a hot draw.
    EXPECT_EQ(hist[1].hotLookups, 5000u);
    // 4000 ranks alias onto fewer distinct rows.
    EXPECT_LT(hist[1].uniqueHotIndices, 4000u);
}

/**
 * TraceGenerator::hotRowHeats as it was, kept as the reference: two
 * pow calls per rank.
 */
std::vector<engine::RowHeat>
referenceHotRowHeats(const TraceGenerator &gen, std::uint32_t tables)
{
    const TraceConfig &trace = gen.traceConfig();
    std::vector<engine::RowHeat> heats;
    const double n = static_cast<double>(trace.hotRowsPerTable);
    const double invSkew = 1.0 / trace.hotSkew;
    for (std::uint32_t t = 0; t < tables; ++t) {
        for (std::uint64_t r = 0; r < trace.hotRowsPerTable; ++r) {
            const double weight =
                trace.tableHotFraction(t) *
                (std::pow((static_cast<double>(r) + 1.0) / n, invSkew) -
                 std::pow(static_cast<double>(r) / n, invSkew));
            heats.push_back(engine::RowHeat{TableId{t},
                                            EvIndex{gen.hotRow(t, r)},
                                            weight});
        }
    }
    return heats;
}

TEST(HotRowHeatsDifferential, OnePowPerRankIsBitExact)
{
    for (const double skew : {1.5, 2.0, 3.0, 1.0, 0.7}) {
        for (const std::uint64_t hotRows : {1u, 2u, 3u, 1000u, 10000u}) {
            model::ModelConfig cfg = model::rmc1();
            cfg.numTables = 3;
            cfg.withRowsPerTable(50000);
            TraceConfig trace;
            trace.hotRowsPerTable = hotRows;
            trace.hotSkew = skew;
            trace.tableHotFractions = {0.65, 0.0, 1.0};
            const TraceGenerator gen(cfg, trace);
            const std::vector<engine::RowHeat> got = gen.hotRowHeats();
            const std::vector<engine::RowHeat> want =
                referenceHotRowHeats(gen, cfg.numTables);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].table, want[i].table) << i;
                ASSERT_EQ(got[i].row, want[i].row) << i;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].weight),
                          std::bit_cast<std::uint64_t>(want[i].weight))
                    << "skew " << skew << ", " << hotRows
                    << " hot rows, entry " << i;
            }
        }
    }
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
