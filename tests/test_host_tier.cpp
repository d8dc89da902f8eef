/**
 * @file
 * Tests for the host-DRAM embedding tier: planner budget edge cases,
 * slice-granularity interception, byte-exact tiered-vs-untiered
 * results on a single device and a sharded cluster (blocking and
 * async), residual re-sharding, DMA accounting, and stats export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd {
namespace {

/** Small functional model: tables load into flash in milliseconds. */
model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1(); // 8 tables
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 4;
    return cfg;
}

/** Two fully-hot tables (always interceptable), six mixed tables. */
workload::TraceConfig
tieredTrace(std::uint64_t seed = 0x71e8ULL)
{
    workload::TraceConfig tc;
    tc.hotRowsPerTable = 32;
    tc.hotAccessFraction = 0.5;
    tc.hotSkew = 2.0;
    tc.seed = seed;
    tc.tableHotFractions = {1.0, 1.0};
    return tc;
}

/** Provision a tier for @p frac of the embedding bytes. */
std::shared_ptr<host::EmbeddingTier>
makeTier(const model::DlrmModel &model,
         const workload::TraceGenerator &gen, double frac)
{
    const model::ModelConfig &cfg = model.config();
    const auto hist = gen.tableHistograms(4096);
    const auto heats = gen.hotRowHeats();
    const engine::TierPlan plan = engine::planHostTier(
        cfg.rowsPerTable, Bytes{cfg.vectorBytes()},
        workload::planTierShares(hist), heats,
        Bytes{static_cast<std::uint64_t>(
            static_cast<double>(cfg.embeddingBytes()) * frac)});
    auto tier = std::make_shared<host::EmbeddingTier>(model);
    tier->provision(plan);
    return tier;
}

/** Shard sub-requests @p fleet's scatter stage has submitted. */
std::uint64_t
subRequests(const cluster::RmSsdCluster &fleet)
{
    StatsRegistry stats;
    fleet.registerStats(stats);
    return stats.counterValue("cluster.subRequests");
}

// ---- Planner -------------------------------------------------------

TEST(TierPlanner, ZeroBudgetIsEmpty)
{
    const std::vector<double> shares{1.0, 1.0};
    const std::vector<engine::RowHeat> heats{
        {TableId{0}, EvIndex{1}, 0.5}};
    const engine::TierPlan plan =
        engine::planHostTier(100, Bytes{4}, shares, heats, Bytes{0});
    EXPECT_TRUE(plan.entries.empty());
    EXPECT_EQ(plan.plannedBytes.raw(), 0u);
    EXPECT_EQ(plan.budgetBytes.raw(), 0u);
}

TEST(TierPlanner, BudgetCoveringAllPinsEveryTableWhole)
{
    const std::vector<double> shares{3.0, 1.0, 2.0};
    const std::vector<engine::RowHeat> heats{
        {TableId{0}, EvIndex{1}, 0.5}};
    const engine::TierPlan plan = engine::planHostTier(
        100, Bytes{4}, shares, heats, Bytes{3 * 100 * 4});
    ASSERT_EQ(plan.entries.size(), 3u);
    for (const engine::TierPlanEntry &entry : plan.entries) {
        EXPECT_TRUE(entry.wholeTable);
        EXPECT_TRUE(entry.rows.empty());
        EXPECT_EQ(entry.bytes.raw(), 100u * 4u);
    }
    EXPECT_EQ(plan.plannedBytes.raw(), 3u * 100u * 4u);
}

TEST(TierPlanner, ColdRowsAreNeverBought)
{
    // Each table has only 3 positive-weight rows; a 50-slot budget
    // (no whole-table upgrade affordable) buys exactly those.
    const std::vector<double> shares{1.0, 1.0};
    std::vector<engine::RowHeat> heats;
    for (std::uint32_t t = 0; t < 2; ++t)
        for (std::uint64_t r = 0; r < 3; ++r)
            heats.push_back(
                {TableId{t}, EvIndex{10 + r}, 0.1});
    const engine::TierPlan plan = engine::planHostTier(
        100, Bytes{4}, shares, heats, Bytes{50 * 4});
    ASSERT_EQ(plan.entries.size(), 2u);
    for (const engine::TierPlanEntry &entry : plan.entries) {
        EXPECT_FALSE(entry.wholeTable);
        EXPECT_EQ(entry.rows.size(), 3u);
    }
    EXPECT_EQ(plan.plannedBytes.raw(), 6u * 4u);
    EXPECT_LT(plan.plannedBytes.raw(), plan.budgetBytes.raw());
}

TEST(TierPlanner, AliasedRanksFoldToOneRow)
{
    // Two heat entries land on the same (table, row) — e.g. two hot
    // ranks hashing onto one row — and must fold to a single resident
    // row with summed weight, not a duplicate buy.
    const std::vector<double> shares{1.0};
    const std::vector<engine::RowHeat> heats{
        {TableId{0}, EvIndex{7}, 0.2},
        {TableId{0}, EvIndex{7}, 0.2},
        {TableId{0}, EvIndex{3}, 0.3},
    };
    const engine::TierPlan plan = engine::planHostTier(
        100, Bytes{4}, shares, heats, Bytes{2 * 4});
    ASSERT_EQ(plan.entries.size(), 1u);
    ASSERT_EQ(plan.entries[0].rows.size(), 2u);
    // Folded weight 0.4 ranks row 7 above row 3.
    EXPECT_EQ(plan.entries[0].rows[0].raw(), 7u);
    EXPECT_EQ(plan.entries[0].rows[1].raw(), 3u);
}

TEST(TierPlanner, UpgradesChaseUncoveredTraffic)
{
    // Table 0's hot rows already cover all of its traffic; table 1 is
    // almost entirely cold. Leftover slots must upgrade table 1, not
    // waste a whole-table pin on the fully-covered table 0.
    const std::vector<double> shares{1.0, 1.0};
    std::vector<engine::RowHeat> heats;
    for (std::uint64_t r = 0; r < 5; ++r)
        heats.push_back({TableId{0}, EvIndex{r}, 0.2});
    heats.push_back({TableId{1}, EvIndex{0}, 0.05});
    const engine::TierPlan plan = engine::planHostTier(
        10, Bytes{4}, shares, heats, Bytes{16 * 4});
    ASSERT_EQ(plan.entries.size(), 2u);
    EXPECT_FALSE(plan.entries[0].wholeTable);
    EXPECT_EQ(plan.entries[0].rows.size(), 5u);
    EXPECT_TRUE(plan.entries[1].wholeTable);
}

/**
 * engine::planHostTier as it was before the flat heat map and the
 * quota selection, kept verbatim as the reference: row heat summed in
 * unordered_maps, then a full sort of every table's rows.
 */
engine::TierPlan
referencePlanHostTier(std::uint64_t rowsPerTable, Bytes vectorBytes,
             std::span<const double> shares,
             std::span<const engine::RowHeat> heats, Bytes budgetBytes)
{
    RMSSD_ASSERT(!shares.empty(), "empty table shares");
    RMSSD_ASSERT(rowsPerTable > 0, "empty tables");
    RMSSD_ASSERT(vectorBytes.raw() > 0, "zero-byte embedding vector");

    engine::TierPlan plan;
    plan.budgetBytes = budgetBytes;
    const auto tables = static_cast<std::uint32_t>(shares.size());
    const std::uint64_t slots = budgetBytes.raw() / vectorBytes.raw();
    if (slots == 0)
        return plan;

    // Budget split: largest-remainder apportionment of row slots over
    // the table shares (planTablePartitions' quota scheme), iterated
    // with per-table caps — a table whose quota reaches its row count
    // is pinned whole and its surplus re-apportions to the rest.
    std::vector<std::uint64_t> quota(tables, 0);
    std::uint64_t pool = slots;
    while (pool > 0) {
        double total = 0.0;
        std::uint32_t open = 0;
        for (std::uint32_t t = 0; t < tables; ++t) {
            if (quota[t] >= rowsPerTable)
                continue;
            RMSSD_ASSERT(shares[t] > 0.0, "non-positive table share");
            total += shares[t];
            ++open;
        }
        if (open == 0)
            break; // every table already whole; surplus stays unused

        std::uint64_t assigned = 0;
        std::vector<std::pair<double, std::uint32_t>> remainders;
        remainders.reserve(open);
        for (std::uint32_t t = 0; t < tables; ++t) {
            if (quota[t] >= rowsPerTable)
                continue;
            const double exact =
                static_cast<double>(pool) * shares[t] / total;
            const auto whole = static_cast<std::uint64_t>(exact);
            const std::uint64_t take =
                std::min(whole, rowsPerTable - quota[t]);
            quota[t] += take;
            assigned += take;
            if (quota[t] < rowsPerTable)
                remainders.emplace_back(exact - static_cast<double>(whole),
                                        t);
        }
        std::sort(remainders.begin(), remainders.end(),
                  [](const auto &a, const auto &b) {
                      // Ties broken by table id for determinism.
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        for (const auto &[rem, t] : remainders) {
            if (assigned >= pool)
                break;
            ++quota[t];
            ++assigned;
        }
        if (assigned == 0)
            break; // nothing placeable (all floors zero, all capped)
        pool -= assigned;
    }

    // Vector granularity: each table's quota buys its hottest rows.
    // Weights accumulate per row (hot ranks can alias onto one row),
    // and rows with no positive weight are never bought — the tier
    // pays off per intercepted lookup, so cold rows are dead weight.
    struct TableHeat
    {
        std::vector<std::pair<double, std::uint64_t>> rows;
        double totalWeight = 0.0;
    };
    std::vector<TableHeat> heat(tables);
    {
        std::vector<std::unordered_map<std::uint64_t, double>> acc(
            tables);
        for (const engine::RowHeat &row : heats) {
            if (row.weight <= 0.0 || row.table.raw() >= tables)
                continue;
            acc[row.table.raw()][row.row.raw()] += row.weight;
        }
        for (std::uint32_t t = 0; t < tables; ++t) {
            // det-safe: extraction order is erased by the total-order
            // sort below (weight desc, row asc); totalWeight is a
            // commutative sum.
            for (const auto &[row, weight] : acc[t]) {
                heat[t].rows.emplace_back(weight, row);
                heat[t].totalWeight += weight;
            }
            std::sort(heat[t].rows.begin(), heat[t].rows.end(),
                      [](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          return a.second < b.second;
                      });
        }
    }

    std::vector<engine::TierPlanEntry> entries(tables);
    std::vector<double> covered(tables, 0.0);
    std::uint64_t spent = 0;
    for (std::uint32_t t = 0; t < tables; ++t) {
        entries[t].table = TableId{t};
        if (quota[t] >= rowsPerTable) {
            entries[t].wholeTable = true;
            covered[t] = 1.0;
            spent += rowsPerTable;
            continue;
        }
        const std::uint64_t take =
            std::min<std::uint64_t>(quota[t], heat[t].rows.size());
        entries[t].rows.reserve(take);
        for (std::uint64_t i = 0; i < take; ++i) {
            entries[t].rows.push_back(EvIndex{heat[t].rows[i].second});
            covered[t] += heat[t].rows[i].first;
        }
        spent += take;
    }

    // Table granularity: slots the hot rows could not absorb upgrade
    // tables to whole pins, chasing *uncovered* traffic — the heat
    // mass (hot tail + cold accesses) residency does not serve yet. A
    // fully-hot table whose hot set is already resident has nothing
    // left to cover and never steals an upgrade from a half-cold one.
    std::uint64_t leftover = slots - spent;
    std::vector<std::pair<double, std::uint32_t>> upgrade;
    for (std::uint32_t t = 0; t < tables; ++t) {
        if (!entries[t].wholeTable)
            upgrade.emplace_back(1.0 - covered[t], t);
    }
    std::sort(upgrade.begin(), upgrade.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (const auto &[uncovered, t] : upgrade) {
        if (uncovered <= 0.0)
            break;
        const std::uint64_t cost =
            rowsPerTable - entries[t].rows.size();
        if (cost > leftover)
            continue;
        entries[t].wholeTable = true;
        entries[t].rows.clear();
        leftover -= cost;
        spent += cost;
    }

    for (engine::TierPlanEntry &entry : entries) {
        entry.bytes =
            Bytes{(entry.wholeTable ? rowsPerTable
                                    : entry.rows.size()) *
                  vectorBytes.raw()};
        if (entry.wholeTable || !entry.rows.empty())
            plan.entries.push_back(std::move(entry));
    }
    plan.plannedBytes = Bytes{spent * vectorBytes.raw()};
    return plan;
}

/** "" when two plans are equal field by field, else the first difference. */
std::string
planMismatch(const engine::TierPlan &got, const engine::TierPlan &want)
{
    std::ostringstream os;
    if (got.budgetBytes != want.budgetBytes ||
        got.plannedBytes != want.plannedBytes)
        os << "planned bytes " << got.plannedBytes.raw() << " vs "
           << want.plannedBytes.raw();
    else if (got.entries.size() != want.entries.size())
        os << got.entries.size() << " entries vs " << want.entries.size();
    for (std::size_t e = 0; os.str().empty() && e < got.entries.size();
         ++e) {
        const engine::TierPlanEntry &a = got.entries[e];
        const engine::TierPlanEntry &b = want.entries[e];
        if (a.table != b.table || a.wholeTable != b.wholeTable ||
            a.bytes != b.bytes || a.rows != b.rows)
            os << "entry " << e << " (table " << b.table.raw() << ")";
    }
    return os.str();
}

TEST(TierPlannerDifferential, MatchesFullSortReference)
{
    // Random plans built to hit the selection's edges: few distinct
    // weights (ties at the quota boundary), rows drawn from a narrow
    // range (aliased entries), budgets from zero past every table
    // (quotas below and above a table's hot-row count, whole-table
    // pins and upgrades).
    Rng rng(0x71e4);
    const double weights[] = {0.25, 0.5, 0.125, 1.0 / 3.0, 0.0, -0.5};
    int belowHotRows = 0, allHotRows = 0, upgraded = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const auto tables = static_cast<std::uint32_t>(1 + rng.nextBounded(6));
        const std::uint64_t rowsPerTable =
            std::uint64_t{1} << (2 + rng.nextBounded(9));
        const std::uint64_t rowRange = 1 + rng.nextBounded(rowsPerTable);
        std::vector<double> shares;
        for (std::uint32_t t = 0; t < tables; ++t)
            shares.push_back(static_cast<double>(1 + rng.nextBounded(4)));
        std::vector<engine::RowHeat> heats;
        const std::uint64_t count = rng.nextBounded(3 * rowRange + 8);
        for (std::uint64_t i = 0; i < count; ++i) {
            const double w = rng.nextBounded(4) == 0
                                 ? rng.nextDouble()
                                 : weights[rng.nextBounded(6)];
            heats.push_back({TableId{static_cast<std::uint32_t>(
                                 rng.nextBounded(tables + 1))},
                             EvIndex{rng.nextBounded(rowRange)}, w});
        }
        const std::uint64_t slots =
            rng.nextBounded(tables * rowsPerTable * 5 / 4 + 2);
        const Bytes budget{slots * 4 + rng.nextBounded(4)};
        const engine::TierPlan got =
            engine::planHostTier(rowsPerTable, Bytes{4}, shares, heats,
                                 budget);
        const engine::TierPlan want = referencePlanHostTier(
            rowsPerTable, Bytes{4}, shares, heats, budget);
        ASSERT_EQ(planMismatch(got, want), "") << "trial " << trial;

        // What the trial covered: per table, the distinct rows with
        // positive heat against the rows bought.
        for (const engine::TierPlanEntry &entry : want.entries) {
            std::vector<std::uint64_t> hot;
            for (const engine::RowHeat &h : heats) {
                if (h.table == entry.table && h.weight > 0.0)
                    hot.push_back(h.row.raw());
            }
            std::sort(hot.begin(), hot.end());
            hot.erase(std::unique(hot.begin(), hot.end()), hot.end());
            if (entry.wholeTable)
                upgraded += hot.size() < rowsPerTable ? 1 : 0;
            else if (entry.rows.size() < hot.size())
                ++belowHotRows;
            else
                ++allHotRows;
        }
    }
    EXPECT_GT(belowHotRows, 50);
    EXPECT_GT(allHotRows, 50);
    EXPECT_GT(upgraded, 50);
}

TEST(TierPlannerDifferential, TiesAtTheQuotaKeepTheLowestRows)
{
    // 40 rows of one weight, listed from the highest row down, and a
    // quota of 10: the plan keeps rows 0..9 in ascending order.
    std::vector<engine::RowHeat> heats;
    for (std::uint64_t r = 40; r-- > 0;)
        heats.push_back({TableId{0}, EvIndex{r}, 0.25});
    heats.push_back({TableId{0}, EvIndex{33}, 0.25}); // 33 now hottest
    const std::vector<double> shares{1.0};
    const engine::TierPlan got =
        engine::planHostTier(1000, Bytes{4}, shares, heats, Bytes{10 * 4});
    ASSERT_EQ(planMismatch(got, referencePlanHostTier(
                                    1000, Bytes{4}, shares, heats,
                                    Bytes{10 * 4})),
              "");
    ASSERT_EQ(got.entries.size(), 1u);
    std::vector<std::uint64_t> rows;
    for (const EvIndex row : got.entries[0].rows)
        rows.push_back(row.raw());
    EXPECT_EQ(rows, (std::vector<std::uint64_t>{33, 0, 1, 2, 3, 4, 5, 6,
                                                 7, 8}));
}

TEST(TierPlannerDifferential, TraceHeatsAtBenchScaleMatchReference)
{
    // Analytic heats of an RMC1-like trace: 8 tables of 10 000 hot
    // ranks, budgets from a sliver (every quota below the hot set) to
    // past the hot set (every hot row kept, upgrades).
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(std::uint64_t{1} << 16);
    workload::TraceConfig trace;
    trace.tableHotFractions = {1.0, 0.9, 0.2};
    const workload::TraceGenerator gen(cfg, trace);
    const std::vector<engine::RowHeat> heats = gen.hotRowHeats();
    const std::vector<double> shares =
        workload::planTierShares(gen.tableHistograms(4096));
    for (const std::uint64_t slots :
         {std::uint64_t{1000}, std::uint64_t{40000}, std::uint64_t{90000},
          std::uint64_t{200000}, std::uint64_t{400000}}) {
        const Bytes budget{slots * cfg.vectorBytes()};
        ASSERT_EQ(planMismatch(
                      engine::planHostTier(cfg.rowsPerTable,
                                           Bytes{cfg.vectorBytes()}, shares,
                                           heats, budget),
                      referencePlanHostTier(cfg.rowsPerTable,
                                            Bytes{cfg.vectorBytes()}, shares,
                                            heats, budget)),
                  "")
            << slots << " slots";
    }
}

// ---- Tier residency and interception -------------------------------

TEST(EmbeddingTier, ProvisionTracksResidency)
{
    const model::ModelConfig cfg = tinyConfig();
    const model::DlrmModel model(cfg);
    host::EmbeddingTier tier(model);
    EXPECT_FALSE(tier.active());

    engine::TierPlan plan;
    plan.entries.push_back({TableId{0}, true, {}, Bytes{}});
    plan.entries.push_back(
        {TableId{2}, false, {EvIndex{5}, EvIndex{9}}, Bytes{}});
    tier.provision(plan);

    EXPECT_TRUE(tier.active());
    EXPECT_EQ(tier.residentRows(0), cfg.rowsPerTable);
    EXPECT_EQ(tier.residentRows(1), 0u);
    EXPECT_EQ(tier.residentRows(2), 2u);
    EXPECT_TRUE(tier.resident(0, 123));
    EXPECT_TRUE(tier.resident(2, 5));
    EXPECT_FALSE(tier.resident(2, 6));
    EXPECT_EQ(tier.residentBytes().raw(),
              (cfg.rowsPerTable + 2) * cfg.vectorBytes());
}

TEST(EmbeddingTier, InterceptServesOnlyFullyResidentSlices)
{
    const model::ModelConfig cfg = tinyConfig();
    const model::DlrmModel model(cfg);
    host::EmbeddingTier tier(model);
    engine::TierPlan plan;
    plan.entries.push_back({TableId{0}, true, {}, Bytes{}});
    plan.entries.push_back(
        {TableId{1}, false, {EvIndex{1}, EvIndex{2}}, Bytes{}});
    tier.provision(plan);

    model::Sample sample;
    sample.dense.resize(cfg.denseInputDim(), 0.5f);
    sample.indices.resize(cfg.numTables);
    sample.indices[0] = {10, 20, 30, 40}; // whole table -> served
    sample.indices[1] = {1, 2, 1, 2};     // all resident -> served
    sample.indices[2] = {1, 2, 3, 4};     // no residency -> forwarded
    const std::size_t forwarded = sample.indices[2].size();

    const auto icpt = tier.intercept(
        std::span<const model::Sample>(&sample, 1), true);
    EXPECT_EQ(icpt.servedSlices, 2u);
    EXPECT_EQ(icpt.servedRows, 8u);
    EXPECT_EQ(icpt.residualIndices, forwarded);
    EXPECT_GT(icpt.hostNanos.raw(), 0u);
    ASSERT_EQ(icpt.residual.size(), 1u);
    EXPECT_TRUE(icpt.residual[0].indices[0].empty());
    EXPECT_TRUE(icpt.residual[0].indices[1].empty());
    EXPECT_EQ(icpt.residual[0].indices[2].size(), forwarded);
    ASSERT_EQ(icpt.served[0].size(), 2u);
    // Served partials equal the reference fold bit-for-bit.
    const std::vector<std::uint64_t> refIndices{10, 20, 30, 40};
    const model::Vector ref =
        model.embedding().tables()[0].slsReference(refIndices);
    ASSERT_EQ(icpt.served[0][0].pooled.size(), ref.size());
    for (std::size_t d = 0; d < ref.size(); ++d)
        EXPECT_EQ(icpt.served[0][0].pooled[d], ref[d]);
    EXPECT_EQ(tier.sliceHits().value(), 2u);
    EXPECT_EQ(tier.sliceMisses().value(),
              static_cast<std::uint64_t>(cfg.numTables) - 2u);
}

// ---- Stored-row pooling ---------------------------------------------

/** Float bit patterns, so pooled vectors compare bit for bit. */
std::vector<std::uint32_t>
floatBits(const model::Vector &v)
{
    std::vector<std::uint32_t> out;
    for (const float x : v)
        out.push_back(std::bit_cast<std::uint32_t>(x));
    return out;
}

/** A sample of @p cfg whose table t looks up @p slices[t] only. */
model::Sample
slicesSample(const model::ModelConfig &cfg,
             std::vector<std::vector<std::uint64_t>> slices)
{
    model::Sample sample;
    sample.dense.resize(cfg.denseInputDim(), 0.5f);
    slices.resize(cfg.numTables);
    sample.indices = std::move(slices);
    return sample;
}

/**
 * Intercept @p sample functionally and expect every served slice
 * bit-equal to the reference SLS of its rows. @return slices served
 */
std::size_t
expectServedBitExact(host::EmbeddingTier &tier,
                     const model::Sample &sample)
{
    const auto icpt = tier.intercept(
        std::span<const model::Sample>(&sample, 1), true);
    const auto &tables = tier.model().embedding().tables();
    for (const auto &served : icpt.served[0]) {
        const model::Vector ref =
            tables[served.table].slsReference(sample.indices[served.table]);
        EXPECT_EQ(floatBits(served.pooled), floatBits(ref))
            << "table " << served.table;
    }
    return icpt.served[0].size();
}

TEST(EmbeddingTier, StoredRowPoolingIsBitEqualToReference)
{
    const model::ModelConfig cfg = tinyConfig();
    const model::DlrmModel model(cfg);
    host::EmbeddingTier tier(model);
    engine::TierPlan plan;
    plan.entries.push_back({TableId{0}, true, {}, Bytes{}});
    plan.entries.push_back({TableId{1},
                            false,
                            {EvIndex{3}, EvIndex{7}, EvIndex{11},
                             EvIndex{7}, EvIndex{200}, EvIndex{511}},
                            Bytes{}});
    plan.entries.push_back({TableId{3}, false, {EvIndex{0}}, Bytes{}});
    tier.provision(plan);
    EXPECT_EQ(tier.residentRows(1), 5u); // the duplicate 7 folds
    EXPECT_EQ(tier.storedRows(), 0u);

    // Whole (table 0) and partial (tables 1, 3) residency, duplicate
    // rows within a slice, and a forwarded slice (table 2).
    const model::Sample first = slicesSample(
        cfg, {{10, 20, 10, 500}, {7, 3, 7, 511}, {1}, {0, 0}});
    EXPECT_EQ(expectServedBitExact(tier, first), 3u); // first reads
    EXPECT_EQ(tier.storedRows(), 7u);
    EXPECT_EQ(expectServedBitExact(tier, first), 3u); // repeated reads
    EXPECT_EQ(tier.storedRows(), 7u);

    // Stored and new rows mixed in one slice (table 3's empty slice is
    // served too: every one of its zero rows is resident).
    const model::Sample mixed =
        slicesSample(cfg, {{10, 30, 20}, {200, 7, 11}});
    EXPECT_EQ(expectServedBitExact(tier, mixed), 3u);
    EXPECT_EQ(tier.storedRows(), 10u);
}

TEST(EmbeddingTier, ProvisionClearsStoredRows)
{
    const model::ModelConfig cfg = tinyConfig();
    const model::DlrmModel model(cfg);
    host::EmbeddingTier tier(model);
    engine::TierPlan whole;
    whole.entries.push_back({TableId{0}, true, {}, Bytes{}});
    tier.provision(whole);
    EXPECT_EQ(expectServedBitExact(tier, slicesSample(cfg, {{1, 2}})), 1u);
    EXPECT_EQ(tier.storedRows(), 2u);

    // Under the new plan row 2 takes slot 1, the slot that held row 1
    // under the whole-table plan: a row stored before provision must
    // not be read back.
    engine::TierPlan partial;
    partial.entries.push_back(
        {TableId{0}, false, {EvIndex{9}, EvIndex{2}}, Bytes{}});
    tier.provision(partial);
    EXPECT_EQ(tier.storedRows(), 0u);
    EXPECT_EQ(expectServedBitExact(tier, slicesSample(cfg, {{2, 9, 2}})),
              1u);
    EXPECT_EQ(tier.storedRows(), 2u);
}

TEST(EmbeddingTier, TimingOnlyInterceptFillsNoRow)
{
    const model::ModelConfig cfg = tinyConfig();
    const model::DlrmModel model(cfg);
    host::EmbeddingTier tier(model);
    engine::TierPlan plan;
    plan.entries.push_back({TableId{0}, true, {}, Bytes{}});
    plan.entries.push_back({TableId{1}, false, {EvIndex{4}}, Bytes{}});
    tier.provision(plan);

    const model::Sample sample = slicesSample(cfg, {{5, 6}, {4, 4}});
    const auto icpt = tier.intercept(
        std::span<const model::Sample>(&sample, 1), false);
    ASSERT_EQ(icpt.served[0].size(), 2u);
    for (const auto &served : icpt.served[0])
        EXPECT_TRUE(served.pooled.empty());
    EXPECT_EQ(tier.storedRows(), 0u);

    EXPECT_EQ(expectServedBitExact(tier, sample), 2u);
    EXPECT_EQ(tier.storedRows(), 3u);
}

// ---- Byte-exactness against the un-tiered device -------------------

void
expectSameOutputs(const std::vector<float> &a,
                  const std::vector<float> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "output " << i;
}

void
runByteExactDevice(engine::EngineVariant variant, double budgetFrac,
                   std::uint32_t queueDepth)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;
    opt.variant = variant;
    engine::RmSsd plain(cfg, opt);
    engine::RmSsd tiered(cfg, opt);
    plain.loadTables();
    tiered.loadTables();

    workload::TraceGenerator gen(cfg, tieredTrace());
    const auto tier = makeTier(tiered.model(), gen, budgetFrac);
    ASSERT_TRUE(tier->active());
    tiered.attachHostTier(tier);

    plain.setMaxInflight(queueDepth);
    tiered.setMaxInflight(queueDepth);
    workload::TraceGenerator genA(cfg, tieredTrace());
    workload::TraceGenerator genB(cfg, tieredTrace());
    std::vector<std::vector<float>> outA;
    std::vector<std::vector<float>> outB;
    for (int r = 0; r < 12; ++r) {
        plain.submit(genA.nextBatch(3));
        tiered.submit(genB.nextBatch(3));
        while (const auto c = plain.poll())
            outA.push_back(c->outcome.outputs);
        while (const auto c = tiered.poll())
            outB.push_back(c->outcome.outputs);
    }
    for (const auto &c : plain.drain())
        outA.push_back(c.outcome.outputs);
    for (const auto &c : tiered.drain())
        outB.push_back(c.outcome.outputs);

    EXPECT_GT(tier->sliceHits().value(), 0u);
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t r = 0; r < outA.size(); ++r)
        expectSameOutputs(outA[r], outB[r]);
}

TEST(HostTier, EmbeddingOnlyByteExactFullResidencyDepth1)
{
    runByteExactDevice(engine::EngineVariant::EmbeddingOnly, 1.0, 1);
}

TEST(HostTier, EmbeddingOnlyByteExactPartialResidencyDepth1)
{
    runByteExactDevice(engine::EngineVariant::EmbeddingOnly, 0.125, 1);
}

TEST(HostTier, SearchedByteExactPartialResidencyDepth1)
{
    runByteExactDevice(engine::EngineVariant::Searched, 0.125, 1);
}

TEST(HostTier, SearchedByteExactPartialResidencyDepth4)
{
    runByteExactDevice(engine::EngineVariant::Searched, 0.125, 4);
}

TEST(HostTier, EmbeddingOnlyByteExactFullResidencyDepth4)
{
    runByteExactDevice(engine::EngineVariant::EmbeddingOnly, 1.0, 4);
}

TEST(HostTier, InputDmaShrinksWithTier)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;
    opt.variant = engine::EngineVariant::EmbeddingOnly;
    engine::RmSsd plain(cfg, opt);
    engine::RmSsd tiered(cfg, opt);
    plain.loadTables();
    tiered.loadTables();
    workload::TraceGenerator gen(cfg, tieredTrace());
    tiered.attachHostTier(makeTier(tiered.model(), gen, 1.0));

    workload::TraceGenerator genA(cfg, tieredTrace());
    workload::TraceGenerator genB(cfg, tieredTrace());
    for (int r = 0; r < 8; ++r) {
        plain.infer(genA.nextBatch(3));
        tiered.infer(genB.nextBatch(3));
    }
    // Full residency serves every slice: only dense inputs go down,
    // and readback shrinks to the status register.
    EXPECT_LT(tiered.hostBytesWritten().value(),
              plain.hostBytesWritten().value());
    EXPECT_LT(tiered.hostBytesRead().value(),
              plain.hostBytesRead().value());
}

// ---- Cluster: byte-exactness + residual re-sharding ----------------

void
runByteExactCluster(double budgetFrac, std::uint32_t queueDepth)
{
    const model::ModelConfig cfg = tinyConfig();
    cluster::ClusterOptions copt;
    copt.sharding.numDevices = 4;
    copt.embeddingOnly = true;
    copt.device.functional = true;
    cluster::RmSsdCluster plain(cfg, copt);
    cluster::RmSsdCluster tiered(cfg, copt);

    workload::TraceGenerator gen(cfg, tieredTrace());
    const auto tier = makeTier(tiered.model(), gen, budgetFrac);
    ASSERT_TRUE(tier->active());
    tiered.attachHostTier(tier);

    plain.setMaxInflight(queueDepth);
    tiered.setMaxInflight(queueDepth);
    workload::TraceGenerator genA(cfg, tieredTrace());
    workload::TraceGenerator genB(cfg, tieredTrace());
    std::vector<std::vector<float>> outA;
    std::vector<std::vector<float>> outB;
    for (int r = 0; r < 12; ++r) {
        plain.submit(genA.nextBatch(3));
        tiered.submit(genB.nextBatch(3));
        while (const auto c = plain.poll())
            outA.push_back(c->outcome.outputs);
        while (const auto c = tiered.poll())
            outB.push_back(c->outcome.outputs);
    }
    for (const auto &c : plain.drain())
        outA.push_back(c.outcome.outputs);
    for (const auto &c : tiered.drain())
        outB.push_back(c.outcome.outputs);

    EXPECT_GT(tier->sliceHits().value(), 0u);
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t r = 0; r < outA.size(); ++r)
        expectSameOutputs(outA[r], outB[r]);
}

TEST(HostTier, ClusterByteExactPartialResidencyDepth1)
{
    runByteExactCluster(0.125, 1);
}

TEST(HostTier, ClusterByteExactPartialResidencyDepth4)
{
    runByteExactCluster(0.125, 4);
}

TEST(HostTier, ClusterByteExactFullResidencyDepth4)
{
    runByteExactCluster(1.0, 4);
}

TEST(HostTier, ResidualReshardsAroundFullyServedShard)
{
    const model::ModelConfig cfg = tinyConfig();
    cluster::ClusterOptions copt;
    copt.sharding.numDevices = 4;
    copt.embeddingOnly = true;
    copt.device.functional = true;
    cluster::RmSsdCluster plain(cfg, copt);
    cluster::RmSsdCluster tiered(cfg, copt);

    // Pin exactly shard 0's tables whole: every slice they own is
    // served on the host, so shard 0 must never see a sub-request.
    engine::TierPlan plan;
    for (const std::uint32_t g :
         tiered.shardPlan().tablesPerDevice[0])
        plan.entries.push_back({TableId{g}, true, {}, Bytes{}});
    auto tier = std::make_shared<host::EmbeddingTier>(tiered.model());
    tier->provision(plan);
    tiered.attachHostTier(tier);

    workload::TraceGenerator genA(cfg, tieredTrace());
    workload::TraceGenerator genB(cfg, tieredTrace());
    std::vector<std::vector<float>> outA;
    std::vector<std::vector<float>> outB;
    for (int r = 0; r < 8; ++r) {
        outA.push_back(plain.infer(genA.nextBatch(2)).outputs);
        outB.push_back(tiered.infer(genB.nextBatch(2)).outputs);
    }
    for (std::size_t r = 0; r < outA.size(); ++r)
        expectSameOutputs(outA[r], outB[r]);

    EXPECT_EQ(tiered.shard(0).inferences().value(), 0u);
    EXPECT_GT(plain.shard(0).inferences().value(), 0u);
    EXPECT_LT(subRequests(tiered), subRequests(plain));
    EXPECT_LT(tiered.hostBytesWritten().value(),
              plain.hostBytesWritten().value());
}

TEST(HostTier, FullyServedClusterRequestIsReadyAtItsScatter)
{
    // A tier of twice the table bytes serves every slice, so the
    // request scatters to no shard. Its ready cycle is its scatter
    // time, not cycle 0.
    const model::ModelConfig cfg = tinyConfig();
    cluster::ClusterOptions copt;
    copt.sharding.numDevices = 2;
    cluster::RmSsdCluster fleet(cfg, copt);
    workload::TraceGenerator gen(cfg, tieredTrace());
    fleet.attachHostTier(makeTier(fleet.model(), gen, 2.0));
    fleet.setMaxInflight(2);

    fleet.advanceHostClock(Nanos{100'000});
    const Cycle scatter = fleet.deviceNow();
    const engine::RequestId id = fleet.submit(gen.nextBatch(2));
    EXPECT_EQ(subRequests(fleet), 0u);
    const Cycle done = fleet.requestDoneCycle(id);
    ASSERT_GE(done, scatter);
    ASSERT_GT(scatter, Cycle{});
    EXPECT_EQ(fleet.harvestDoneBy(done - Cycle{1}), 0u);
    EXPECT_EQ(fleet.harvestDoneBy(done), 1u);
}

// ---- Stats + serving integration -----------------------------------

TEST(HostTier, StatsExportHitsMissesBytesAndResidencyGauges)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;
    opt.variant = engine::EngineVariant::EmbeddingOnly;
    engine::RmSsd dev(cfg, opt);
    dev.loadTables();
    workload::TraceGenerator gen(cfg, tieredTrace());
    dev.attachHostTier(makeTier(dev.model(), gen, 0.25));

    dev.infer(gen.nextBatch(2));

    StatsRegistry reg;
    dev.registerStats(reg, "dev");
    std::ostringstream os;
    reg.dump(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("dev.host.tier.hits"), std::string::npos);
    EXPECT_NE(dump.find("dev.host.tier.misses"), std::string::npos);
    EXPECT_NE(dump.find("dev.host.tier.bytes"), std::string::npos);
    EXPECT_NE(dump.find("dev.host.tier.table0.residentRows"),
              std::string::npos);
    EXPECT_EQ(reg.counterValue("dev.host.tier.hits"),
              dev.tierSliceHits());
    EXPECT_EQ(reg.gaugeValue("dev.host.tier.table0.residentRows"),
              dev.hostTier()->residentRows(0));
    EXPECT_GT(reg.gaugeValue("dev.host.tier.residentBytes"), 0u);
}

TEST(HostTier, ServingLoopReportsTierHitRatio)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;
    opt.variant = engine::EngineVariant::EmbeddingOnly;
    engine::RmSsd dev(cfg, opt);
    dev.loadTables();
    workload::TraceGenerator gen(cfg, tieredTrace());
    dev.attachHostTier(makeTier(dev.model(), gen, 1.0));

    workload::ServingConfig sc;
    sc.arrivalQps = 2000.0;
    sc.batchSize = 2;
    sc.numRequests = 32;
    const workload::ServingResult r =
        workload::simulateServing(dev, gen, sc);
    EXPECT_EQ(r.requests, 32u);
    // Full residency serves every slice.
    EXPECT_DOUBLE_EQ(r.tierHitRatio, 1.0);
}

TEST(HostTier, DetachRestoresLegacyAccounting)
{
    const model::ModelConfig cfg = tinyConfig();
    engine::RmSsdOptions opt;
    opt.functional = true;
    opt.variant = engine::EngineVariant::EmbeddingOnly;
    engine::RmSsd tiered(cfg, opt);
    engine::RmSsd plain(cfg, opt);
    tiered.loadTables();
    plain.loadTables();
    workload::TraceGenerator gen(cfg, tieredTrace());
    tiered.attachHostTier(makeTier(tiered.model(), gen, 1.0));
    tiered.attachHostTier(nullptr);
    EXPECT_EQ(tiered.hostTier(), nullptr);

    workload::TraceGenerator genA(cfg, tieredTrace());
    workload::TraceGenerator genB(cfg, tieredTrace());
    for (int r = 0; r < 4; ++r) {
        plain.infer(genA.nextBatch(2));
        tiered.infer(genB.nextBatch(2));
    }
    EXPECT_EQ(tiered.hostBytesWritten().value(),
              plain.hostBytesWritten().value());
    EXPECT_EQ(tiered.tierSliceHits(), 0u);
}

} // namespace
} // namespace rmssd
