/**
 * @file
 * Synthetic trace generator: deterministic streams of inference
 * samples following a TraceConfig locality profile, plus the access
 * histogram used to reproduce Fig. 4.
 */

#ifndef RMSSD_WORKLOAD_TRACE_GEN_H
#define RMSSD_WORKLOAD_TRACE_GEN_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/placement.h"
#include "model/dlrm.h"
#include "sim/divider.h"
#include "sim/rng.h"
#include "workload/trace.h"

namespace rmssd::workload {

/** hotRank's reference expression, floor(pow(u, skew) * hotRows). */
std::uint64_t hotRankPow(double u, double skew, std::uint64_t hotRows);

/**
 * Hot rank of uniform draw @p u in [0, 1) over @p hotRows rows:
 * floor(pow(u, skew) * hotRows), clamped to the last row. Bit-exact
 * with that expression; at skew 2 it multiplies instead of calling
 * pow, except within a guard band around an integer boundary
 * (DESIGN.md §13.1).
 */
inline std::uint64_t
hotRank(double u, double skew, std::uint64_t hotRows)
{
    if (skew == 2.0 && hotRows < (std::uint64_t{1} << 52)) {
        // glibc's pow is within ~0.52 ULP, so pow(u, 2) and fl(u * u)
        // are equal or adjacent doubles, and after "* n" the two
        // products differ by a few ULP of x. Away from an integer by
        // far more than that (2^-40 relative is ~4096 ULP), both
        // products floor to the same rank. There is no add, so FMA
        // contraction cannot change x either. With fewer than 2^52
        // rows, floor(x) + 1 is exact and the signed cast floors x
        // (x >= 0) in one instruction.
        const double x = u * u * static_cast<double>(hotRows);
        const auto rank = static_cast<std::int64_t>(x);
        const double f = static_cast<double>(rank);
        const double guard = 0x1p-40 * std::max(x, 1.0);
        if (x - f > guard && (f + 1.0) - x > guard)
            return std::min(static_cast<std::uint64_t>(rank), hotRows - 1);
    }
    return hotRankPow(u, skew, hotRows);
}

/** Deterministic sample stream for one model + locality profile. */
class TraceGenerator
{
  public:
    TraceGenerator(const model::ModelConfig &config,
                   const TraceConfig &trace);

    /** Next sample in the stream. */
    model::Sample next();

    /** Next @p n samples as a request batch. */
    std::vector<model::Sample> nextBatch(std::uint32_t n);

    /**
     * Draw the next sample into @p s, reusing its buffers: the one
     * draw body next() and nextBatch() run. Whatever @p s held
     * (any shape) is overwritten; the result equals next().
     */
    void fill(model::Sample &s);

    /** Restart the stream from its seed. */
    void reset();

    /** The hot-set row for hot rank @p rank of table @p table. */
    std::uint64_t hotRow(std::uint32_t table, std::uint64_t rank) const;

    const TraceConfig &traceConfig() const { return trace_; }

    /** Fig. 4 style summary of a generated index stream. */
    struct HistogramSummary
    {
        std::uint64_t totalLookups = 0;
        std::uint64_t uniqueIndices = 0;
        std::uint64_t onceAccessed = 0; //!< indices touched exactly once
        /** (occurrence count, index) of the top-N hottest indices. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
        double topShare = 0.0; //!< lookup share of the top-N indices
    };

    /** Generate @p lookups lookups into table 0 and summarize. */
    HistogramSummary histogram(std::uint64_t lookups,
                               std::uint32_t topN = 10);

    /**
     * Per-table traffic profile for offline cache partition planning
     * (engine::planTablePartitions consumes the shares derived from
     * it, see planTableShares).
     */
    struct TableHistogram
    {
        std::uint64_t totalLookups = 0;
        std::uint64_t hotLookups = 0; //!< lookups into the hot set
        /** Distinct hot-set rows seen — the cacheable working set. */
        std::uint64_t uniqueHotIndices = 0;
    };

    /**
     * Profile @p lookupsPerTable lookups into every table. Uses a
     * private RNG stream, so the main sample stream (next/nextBatch)
     * is not perturbed — traces generated before and after a call are
     * identical.
     */
    std::vector<TableHistogram>
    tableHistograms(std::uint64_t lookupsPerTable) const;

    /**
     * Analytic per-row access weights of the hot set, for offline
     * placement planning (engine::planHotPages). The rank draw is
     * rank = floor(u^hotSkew * N), so hot rank r carries probability
     * hotAccessFraction * (((r+1)/N)^(1/hotSkew) - (r/N)^(1/hotSkew))
     * — exact, no sampling noise, and independent of the RNG stream.
     */
    std::vector<engine::RowHeat> hotRowHeats() const;

  private:
    std::uint64_t drawIndexWith(Rng &rng, std::uint32_t table) const;

    model::ModelConfig config_;
    TraceConfig trace_;
    Rng rng_;
    /** Reduces a draw to a row: % rowsPerTable by one multiply. */
    Divider rows_;
    /** hashCombine(seed, table) per table: hotRow's first hash. */
    std::vector<std::uint64_t> tableSeeds_;
};

/**
 * Turn a per-table histogram into relative cache shares for
 * engine::EvCacheConfig::tableShares: each table's share is its hot
 * working-set size (unique hot indices) — the rows worth caching —
 * with a floor of one so a cold table still gets a minimal partition.
 */
std::vector<double>
planTableShares(const std::vector<TraceGenerator::TableHistogram> &hist);

/**
 * Turn a per-table histogram into relative host-tier budget shares
 * for engine::planHostTier: each table's share is its hot *traffic*
 * (hot lookups), not its working-set size — the tier pays off per
 * lookup it absorbs, so budget should follow where the lookups go.
 * Floor of one so a cold table can still be whole-table pinned when
 * the budget allows.
 */
std::vector<double>
planTierShares(const std::vector<TraceGenerator::TableHistogram> &hist);

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_TRACE_GEN_H
