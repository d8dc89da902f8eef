/**
 * @file
 * Frequency-aware placement planning: turn per-row access weights
 * into a heat-ordered list of logical flash pages.
 *
 * The embedding access skew of production recommendation traces
 * (Section III-B2, Fig. 4) concentrates most lookups on a small hot
 * row set. Under the linear layout those hot rows land on whatever
 * die their table offset hashes to, so the hottest dies serialize
 * behind their 2800-cycle flushes while others idle. The planner
 * aggregates row weights to page granularity; FrequencyMapping then
 * stripes the top pages round-robin across channels x dies (physical
 * pages 0..tier-1 visit every (channel, die) pair once per C*D block
 * by Geometry::decompose construction).
 */

#ifndef RMSSD_ENGINE_PLACEMENT_H
#define RMSSD_ENGINE_PLACEMENT_H

#include <cstdint>
#include <span>
#include <vector>

#include "engine/ev_translator.h"
#include "sim/types.h"

namespace rmssd::engine {

/** Expected access weight of one embedding row. */
struct RowHeat
{
    TableId table;
    EvIndex row;
    /** Relative access frequency; any non-negative scale works. */
    double weight = 0.0;
};

/**
 * Aggregate @p rows to logical-page heat via @p translator and
 * return up to @p maxPages page ids, hottest first (ties break
 * toward the lower page id so plans are deterministic).
 */
std::vector<PageId> planHotPages(const EvTranslator &translator,
                                 std::span<const RowHeat> rows,
                                 std::size_t maxPages);

/** Planned host-DRAM residency of one embedding table. */
struct TierPlanEntry
{
    TableId table;
    /**
     * The whole table is pinned (table granularity): every row is
     * tier-resident, so rows stays empty.
     */
    bool wholeTable = false;
    /** Resident rows (vector granularity); empty when wholeTable. */
    std::vector<EvIndex> rows;
    /** DRAM bytes this entry occupies. */
    Bytes bytes;
};

/** A host-DRAM embedding-tier placement under a fixed byte budget. */
struct TierPlan
{
    Bytes budgetBytes;
    /** Bytes actually placed (<= budget; surplus beyond the hot rows
     *  worth pinning is left unused rather than spent on cold rows). */
    Bytes plannedBytes;
    std::vector<TierPlanEntry> entries; //!< one per table with residency
};

/**
 * Plan host-DRAM residency for @p budgetBytes of embedding rows.
 *
 * The budget (in row slots of @p vectorBytes) splits across tables by
 * largest-remainder apportionment over @p shares — the same
 * deterministic quota scheme EvCache's planTablePartitions uses — with
 * per-table caps at @p rowsPerTable: a table whose quota reaches its
 * row count is pinned whole (table granularity) and its surplus slots
 * re-apportion to the remaining tables. A table's quota below the cap
 * buys its top-quota rows by @p heats weight (vector granularity);
 * rows with non-positive weight are never bought — leftover budget
 * shows up as plannedBytes < budgetBytes instead of pinning cold rows
 * that would never amortize.
 *
 * Edge cases: a zero budget returns an empty plan; a budget covering
 * every table pins everything whole.
 */
TierPlan planHostTier(std::uint64_t rowsPerTable, Bytes vectorBytes,
                      std::span<const double> shares,
                      std::span<const RowHeat> heats,
                      Bytes budgetBytes);

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_PLACEMENT_H
