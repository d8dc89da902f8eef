/**
 * @file
 * Frequency-aware logical-to-physical mapping: hot-page die striping.
 *
 * The linear mapping leaves hot embedding vectors wherever the table
 * layout put them; because hot rows are scattered pseudo-randomly over
 * the tables, the per-die hot-page counts are Poisson-distributed and
 * the busiest die serializes a disproportionate share of the lookups
 * (die flush dominates the vector-read cost, Section IV-B2, so die
 * balance IS throughput). This mapping re-places the hottest pages
 * onto the lowest physical page numbers: the geometry interleaves
 * consecutive PPNs channel-first then die (Geometry::decompose), so
 * slots 0..C*D-1 cover every (channel, die) pair exactly once and the
 * hot tier is round-robin striped across the full die array. Cold
 * pages keep their dense layout, inheriting any hot slot's previous
 * occupant via a swap so the mapping stays a bijection.
 *
 * The permutation is stored sparsely (only non-identity entries), so
 * memory scales with the hot-tier size rather than the 8.4 M-page
 * device. Both overlays (logical -> physical and its inverse) and the
 * heat counters are flat open-addressed tables (sim/flat_map.h), so
 * a translation is one probe of a contiguous array. Online heat comes
 * through Mapping::readPage, called on every EV read: a
 * 4-bit count-min sketch (the TinyLFU FrequencySketch) gates an exact
 * per-page candidate counter, so one-shot cold reads never allocate
 * counter state and the tracker stays bounded by the true hot set
 * plus sketch false positives. One splitmix64 of the page number
 * serves the sketch's row 0, the candidate counter's home bucket and
 * the overlay's, so a read costs four hashes (three more sketch
 * rows), not ten.
 */

#ifndef RMSSD_FTL_FREQ_MAPPING_H
#define RMSSD_FTL_FREQ_MAPPING_H

#include <cstdint>
#include <span>
#include <vector>

// The sketch is a self-contained utility (depends on sim/ only); the
// FTL reuses it rather than growing a second count-min implementation.
#include "engine/freq_sketch.h"
#include "ftl/mapping.h"
#include "sim/flat_map.h"
#include "sim/log.h"
#include "sim/types.h"

namespace rmssd::ftl {

/** Hot-striping mapping with sketch-fed online heat tracking. */
class FrequencyMapping final : public Mapping
{
  public:
    /** Online heat-tracker sizing. */
    struct Options
    {
        /** 4-bit counters in the page-heat sketch. */
        std::uint64_t sketchCounters = 1ull << 16;
        /** Recorded reads between sketch halvings (aging). */
        std::uint64_t sketchSampleSize = 1ull << 18;
        /**
         * Sketch estimate a page must reach before it gets an exact
         * candidate counter (bounds tracker memory to the hot set).
         */
        std::uint32_t candidateEstimate = 2;
    };

    /**
     * One planned page relocation: @p hotLpn moves from @p fromPpn
     * into hot slot @p toPpn, displacing @p displacedLpn (the slot's
     * previous occupant) out to @p fromPpn. Committing the swap keeps
     * the mapping bijective; the data copy is the caller's job (it
     * owns the flash timing and the functional store).
     */
    struct Swap
    {
        PageId hotLpn;
        PageId fromPpn;
        PageId toPpn;
        PageId displacedLpn;
    };

    explicit FrequencyMapping(std::uint64_t totalPages);
    FrequencyMapping(std::uint64_t totalPages, const Options &options);

    PageId
    translate(PageId lpn) const override
    {
        RMSSD_ASSERT(lpn.raw() < totalPages_,
                     "logical page out of device range");
        const PageId *ppn = l2p_.find(lpn.raw());
        return ppn == nullptr ? lpn : *ppn;
    }

    PageId assignForWrite(PageId lpn) override;
    PageId readPage(PageId lpn) override;

    /** Logical page currently mapped onto physical page @p ppn. */
    PageId
    inverse(PageId ppn) const
    {
        RMSSD_ASSERT(ppn.raw() < totalPages_,
                     "physical page out of device range");
        const PageId *lpn = p2l_.find(ppn.raw());
        return lpn == nullptr ? ppn : *lpn;
    }

    /**
     * Plan the minimal swap set that brings @p hotLpnsByHeat (hottest
     * first, duplicates ignored) into the hot tier: slots
     * [0, hotCount). Hot pages already inside the tier stay where
     * they are — membership, not rank order, is what balances the
     * dies — so a re-plan over a stable hot set yields zero swaps.
     * Swaps touch pairwise-disjoint pages, so they can be committed
     * (and their data copied) one at a time in any prefix order.
     */
    std::vector<Swap> planHotSet(
        std::span<const PageId> hotLpnsByHeat) const;

    /** What one migration pass observed and the swaps it plans. */
    struct MigrationPlan
    {
        /** Pages in the observed hot set: min(k, candidates). */
        std::uint64_t observed = 0;
        /** Observed hot pages living outside [0, k). */
        std::uint64_t missing = 0;
        /** Empty unless missing / observed exceeds the threshold. */
        std::vector<Swap> swaps;
    };

    /**
     * One migration pass over the online heat counters, in one walk:
     * the @p hotPageCount (k) hottest candidates by (count desc, LPN
     * asc) are the observed hot set, and a page is missing when its
     * PPN is >= k. When missing > 0 and missing / observed exceeds
     * @p driftThreshold, the swaps are planHotSet()'s over the hot set
     * in heat order, cut to the first @p maxSwaps. Each page is
     * translated once, and only the out-of-tier pages that move are
     * put in heat order.
     */
    MigrationPlan planMigration(std::uint64_t hotPageCount,
                                double driftThreshold,
                                std::uint64_t maxSwaps) const;

    /** Apply one planned swap to the mapping (after the data copy). */
    void commitSwap(const Swap &swap);

    /** Reads observed through readPage since the last reset. */
    std::uint64_t observedReads() const { return observedReads_; }

    /** Start a fresh observation window (after a migration pass). */
    void resetObservation();

    /**
     * Non-identity entries currently materialized (both maps).
     * reachability: test-observer — read by
     * FrequencyMappingDifferential.MatchesMapReferenceModel, which
     * checks that no identity entry lingers after a swap.
     */
    std::size_t remappedEntries() const
    {
        return l2p_.size() + p2l_.size();
    }

  private:
    /** Point lpn at ppn, eliding identity entries in both maps. */
    void setMapping(PageId lpn, PageId ppn);

    std::uint64_t totalPages_;
    Options options_;
    /** Sparse permutation: absent keys map to themselves. */
    FlatMap<PageId> l2p_;
    FlatMap<PageId> p2l_;

    engine::FrequencySketch sketch_;
    /**
     * Exact read counts for pages past the sketch admission bar.
     * Determinism audit: the only iteration (planMigration) selects
     * and ranks by a (count desc, PageId asc) total order before any
     * rank leaks out; keep it that way.
     */
    FlatMap<std::uint64_t> candidates_;
    std::uint64_t observedReads_ = 0;
};

} // namespace rmssd::ftl

#endif // RMSSD_FTL_FREQ_MAPPING_H
