#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "sim/flat_map.h"
#include "sim/log.h"

namespace rmssd::workload {

std::uint64_t
hotRankPow(double u, double skew, std::uint64_t hotRows)
{
    const auto rank = static_cast<std::uint64_t>(
        std::pow(u, skew) * static_cast<double>(hotRows));
    return std::min(rank, hotRows - 1);
}

TraceGenerator::TraceGenerator(const model::ModelConfig &config,
                               const TraceConfig &trace)
    : config_(config), trace_(trace), rng_(trace.seed),
      rows_(config.rowsPerTable)
{
    RMSSD_ASSERT(trace_.hotRowsPerTable > 0, "empty hot set");
    tableSeeds_.reserve(config_.numTables);
    for (std::uint32_t t = 0; t < config_.numTables; ++t)
        tableSeeds_.push_back(hashCombine(trace_.seed, t));
}

std::uint64_t
TraceGenerator::hotRow(std::uint32_t table, std::uint64_t rank) const
{
    // Scatter the hot set across the table deterministically so hot
    // rows land on distinct flash/cache pages. Hashing on every draw
    // beats a precomputed rank table: with 10k hot rows per table the
    // table falls out of the host cache while the device runs.
    RMSSD_ASSERT(table < tableSeeds_.size(), "table out of range");
    return rows_.mod(hashCombine(tableSeeds_[table], rank));
}

std::uint64_t
TraceGenerator::drawIndexWith(Rng &rng, std::uint32_t table) const
{
    if (rng.nextDouble() < trace_.tableHotFraction(table)) {
        // Zipf-skewed rank inside the hot set.
        return hotRow(table, hotRank(rng.nextDouble(), trace_.hotSkew,
                                     trace_.hotRowsPerTable));
    }
    // Rng::nextBounded's draw, reduced without a hardware divide.
    return rows_.mod(rng.next());
}

void
TraceGenerator::fill(model::Sample &s)
{
    // Draw through a local copy: the member's state would be reloaded
    // after every index store, which the compiler cannot prove does
    // not alias it.
    Rng rng = rng_;
    s.dense.resize(config_.denseInputDim());
    for (auto &v : s.dense)
        v = static_cast<float>(rng.nextDouble());
    s.indices.resize(config_.numTables);
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        s.indices[t].resize(config_.lookupsPerTable);
        for (auto &idx : s.indices[t])
            idx = drawIndexWith(rng, t);
    }
    rng_ = rng;
}

model::Sample
TraceGenerator::next()
{
    model::Sample s;
    fill(s);
    return s;
}

std::vector<model::Sample>
TraceGenerator::nextBatch(std::uint32_t n)
{
    std::vector<model::Sample> batch(n);
    for (model::Sample &s : batch)
        fill(s);
    return batch;
}

void
TraceGenerator::reset()
{
    rng_ = Rng(trace_.seed);
}

TraceGenerator::HistogramSummary
TraceGenerator::histogram(std::uint64_t lookups, std::uint32_t topN)
{
    FlatMap<std::uint64_t> counts;
    for (std::uint64_t i = 0; i < lookups; ++i)
        ++counts[drawIndexWith(rng_, 0)];

    HistogramSummary summary;
    summary.totalLookups = lookups;
    summary.uniqueIndices = counts.size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> byCount;
    byCount.reserve(counts.size());
    // det-safe: onceAccessed is a commutative sum; byCount is given a
    // total order by the sort below before any rank is extracted.
    counts.forEachUnordered([&](std::uint64_t idx, std::uint64_t n) {
        if (n == 1)
            ++summary.onceAccessed;
        byCount.emplace_back(n, idx);
    });
    // Total order: count desc, then index asc. Without the index
    // tie-breaker, equally-hot rows at the top-N boundary would be
    // ranked by hash-bucket order — a platform artifact, not a result.
    std::sort(byCount.begin(), byCount.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    std::uint64_t topLookups = 0;
    for (std::uint32_t i = 0; i < topN && i < byCount.size(); ++i) {
        summary.top.push_back(byCount[i]);
        topLookups += byCount[i].first;
    }
    summary.topShare = lookups == 0
                           ? 0.0
                           : static_cast<double>(topLookups) /
                                 static_cast<double>(lookups);
    return summary;
}

std::vector<TraceGenerator::TableHistogram>
TraceGenerator::tableHistograms(std::uint64_t lookupsPerTable) const
{
    // A private stream keeps this a pure profiling pass: the main
    // sample stream (rng_) is untouched, so adding a planning step in
    // front of a run cannot change the trace the run sees.
    Rng rng(hashCombine(trace_.seed, 0x7ab1e815ULL));

    std::vector<TableHistogram> hist(config_.numTables);
    // Two ranks may hash to the same row, so each distinct hot row
    // gets an id: a hot draw finds it by rank, a cold draw (which can
    // land on a hot row too) by one probe.
    FlatMap<std::uint32_t> hotIds;      // hot row -> id
    std::vector<std::uint32_t> rankIds; // hot rank -> id
    rankIds.reserve(trace_.hotRowsPerTable);
    std::vector<bool> seen; // per id: drawn this table
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        hotIds.clear();
        rankIds.clear();
        for (std::uint64_t r = 0; r < trace_.hotRowsPerTable; ++r) {
            bool created = false;
            std::uint32_t &id = hotIds.findOrInsert(hotRow(t, r), created);
            if (created) {
                RMSSD_ASSERT(hotIds.size() <= UINT32_MAX,
                             "hot set too large to profile");
                id = static_cast<std::uint32_t>(hotIds.size() - 1);
            }
            rankIds.push_back(id);
        }
        seen.assign(hotIds.size(), false);

        // drawIndexWith's draws, in its order, resolved to an id.
        const double hotFraction = trace_.tableHotFraction(t);
        TableHistogram &h = hist[t];
        h.totalLookups = lookupsPerTable;
        for (std::uint64_t i = 0; i < lookupsPerTable; ++i) {
            std::uint32_t id = 0;
            if (rng.nextDouble() < hotFraction) {
                id = rankIds[hotRank(rng.nextDouble(), trace_.hotSkew,
                                     trace_.hotRowsPerTable)];
            } else {
                const std::uint32_t *hot = hotIds.find(rows_.mod(rng.next()));
                if (hot == nullptr)
                    continue;
                id = *hot;
            }
            ++h.hotLookups;
            if (!seen[id]) {
                seen[id] = true;
                ++h.uniqueHotIndices;
            }
        }
    }
    return hist;
}

std::vector<engine::RowHeat>
TraceGenerator::hotRowHeats() const
{
    std::vector<engine::RowHeat> heats;
    heats.reserve(static_cast<std::size_t>(config_.numTables) *
                  trace_.hotRowsPerTable);
    const double n = static_cast<double>(trace_.hotRowsPerTable);
    const double invSkew = 1.0 / trace_.hotSkew;
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        // Rank r's upper term pow((r + 1) / n) is rank r + 1's lower
        // term pow(r' / n): double(r) + 1.0 == double(r + 1) exactly
        // below 2^53, so one pow per rank gives the same bits.
        double lower = std::pow(0.0 / n, invSkew);
        for (std::uint64_t r = 0; r < trace_.hotRowsPerTable; ++r) {
            const double upper =
                std::pow((static_cast<double>(r) + 1.0) / n, invSkew);
            const double weight =
                trace_.tableHotFraction(t) * (upper - lower);
            lower = upper;
            heats.push_back(engine::RowHeat{TableId{t},
                                            EvIndex{hotRow(t, r)},
                                            weight});
        }
    }
    return heats;
}

std::vector<double>
planTableShares(const std::vector<TraceGenerator::TableHistogram> &hist)
{
    RMSSD_ASSERT(!hist.empty(), "empty table histogram");
    std::vector<double> shares;
    shares.reserve(hist.size());
    for (const TraceGenerator::TableHistogram &h : hist)
        shares.push_back(static_cast<double>(
            std::max<std::uint64_t>(1, h.uniqueHotIndices)));
    return shares;
}

std::vector<double>
planTierShares(const std::vector<TraceGenerator::TableHistogram> &hist)
{
    RMSSD_ASSERT(!hist.empty(), "empty table histogram");
    std::vector<double> shares;
    shares.reserve(hist.size());
    for (const TraceGenerator::TableHistogram &h : hist)
        shares.push_back(static_cast<double>(
            std::max<std::uint64_t>(1, h.hotLookups)));
    return shares;
}

} // namespace rmssd::workload
