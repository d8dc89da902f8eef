#include "engine/placement.h"

#include <algorithm>
#include <unordered_map>

#include "sim/flat_map.h"
#include "sim/log.h"

namespace rmssd::engine {

std::vector<PageId>
planHotPages(const EvTranslator &translator,
             std::span<const RowHeat> rows, std::size_t maxPages)
{
    std::unordered_map<PageId, double> heat;
    for (const RowHeat &row : rows) {
        if (row.weight <= 0.0)
            continue;
        heat[translator.translate(row.table, row.row).lpn] += row.weight;
    }

    // det-safe: extraction order is erased by the total-order sort
    // below (weight desc, PageId asc); the weights themselves are
    // accumulated in row-span order, not bucket order.
    std::vector<std::pair<PageId, double>> pages(heat.begin(),
                                                 heat.end());
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first.raw() < b.first.raw();
              });
    if (pages.size() > maxPages)
        pages.resize(maxPages);

    std::vector<PageId> hot;
    hot.reserve(pages.size());
    for (const auto &[page, weight] : pages)
        hot.push_back(page);
    return hot;
}

TierPlan
planHostTier(std::uint64_t rowsPerTable, Bytes vectorBytes,
             std::span<const double> shares,
             std::span<const RowHeat> heats, Bytes budgetBytes)
{
    RMSSD_ASSERT(!shares.empty(), "empty table shares");
    RMSSD_ASSERT(rowsPerTable > 0, "empty tables");
    RMSSD_ASSERT(vectorBytes.raw() > 0, "zero-byte embedding vector");

    TierPlan plan;
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
    // Per table, (weight, row) in first-seen order; a row's weight
    // adds up in heats order, from 0.
    std::vector<std::vector<std::pair<double, std::uint64_t>>> heat(
        tables);
    {
        std::vector<FlatMap<std::uint32_t>> slotOf(tables); // row -> slot
        for (const RowHeat &row : heats) {
            if (row.weight <= 0.0 || row.table.raw() >= tables)
                continue;
            auto &rows = heat[row.table.raw()];
            bool created = false;
            std::uint32_t &slot = slotOf[row.table.raw()].findOrInsert(
                row.row.raw(), created);
            if (created) {
                RMSSD_ASSERT(rows.size() < UINT32_MAX,
                             "too many rows in one table's heat");
                slot = static_cast<std::uint32_t>(rows.size());
                rows.emplace_back(0.0, row.row.raw());
            }
            rows[slot].first += row.weight;
        }
    }
    // Total order (weight desc, row asc; rows are distinct), so the
    // selected prefix and its order are those of a full sort.
    const auto hotterFirst = [](const auto &a, const auto &b) {
        if (a.first != b.first)
            return a.first > b.first;
        return a.second < b.second;
    };

    std::vector<TierPlanEntry> entries(tables);
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
        // Select the quota's hottest rows, then sort only those.
        auto &rows = heat[t];
        const std::uint64_t take =
            std::min<std::uint64_t>(quota[t], rows.size());
        const auto kept = rows.begin() + static_cast<std::ptrdiff_t>(take);
        std::nth_element(rows.begin(), kept, rows.end(), hotterFirst);
        std::sort(rows.begin(), kept, hotterFirst);
        entries[t].rows.reserve(take);
        for (std::uint64_t i = 0; i < take; ++i) {
            entries[t].rows.push_back(EvIndex{rows[i].second});
            covered[t] += rows[i].first;
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

    for (TierPlanEntry &entry : entries) {
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

} // namespace rmssd::engine
